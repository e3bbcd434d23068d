//! perfbench: end-to-end and per-layer benchmark for sbomdiff.
//!
//! ```text
//! perfbench --workload <corpus|serve-cold|serve-large> --seed <n>
//!           --seconds <s> --trace <0|1> --serve-bin <path> --out <dir>
//!           [--size full|tiny] [--expect-digest <hex>] [--record]
//!           [--repeat-payload]
//! ```
//!
//! Usually started through `perfbench/run.py`, which builds the program
//! first. The last line of standard output is the result object; with
//! `--trace 0` it carries the end-to-end metrics, with `--trace 1` the
//! per-layer ones. README.md explains the workloads and metrics.

mod client;
mod corpus;
mod inputs;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::median;
use trace::Recorder;

/// Input sets with a recorded output digest; `--seed` is taken modulo this.
const RECORDED_SEEDS: u64 = 16;

/// A run keeps starting rounds until `--seconds` have passed, and makes at
/// least this many so that every median has three samples.
const MIN_ROUNDS: usize = 3;

/// End-to-end metrics of one round.
#[derive(Clone, Copy, Default)]
pub struct E2e {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
    pub cpu_ms_per_op: f64,
    pub peak_rss_mb: f64,
}

impl E2e {
    fn named(&self) -> [(&'static str, &'static str, f64); 6] {
        [
            ("setup_s", "s", self.setup_s),
            ("ops_per_s", "1/s", self.ops_per_s),
            ("latency_p50_ms", "ms", self.latency_p50_ms),
            ("latency_tail_ms", "ms", self.latency_tail_ms),
            ("cpu_ms_per_op", "ms", self.cpu_ms_per_op),
            ("peak_rss_mb", "MB", self.peak_rss_mb),
        ]
    }

    /// Per-metric median over rounds.
    fn summarize(rounds: &[E2e]) -> E2e {
        let m = |f: fn(&E2e) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        E2e {
            setup_s: m(|e| e.setup_s),
            ops_per_s: m(|e| e.ops_per_s),
            latency_p50_ms: m(|e| e.latency_p50_ms),
            latency_tail_ms: m(|e| e.latency_tail_ms),
            cpu_ms_per_op: m(|e| e.cpu_ms_per_op),
            peak_rss_mb: m(|e| e.peak_rss_mb),
        }
    }
}

/// Span names of the layer stages, with the metric stem each one reports
/// as `<stem>_ms_per_op` and `<stem>_calls`.
pub const STAGES: [(&str, &str); 15] = [
    ("service.handle", "service.handle"),
    ("textformats.json_parse", "textformats.json_parse"),
    ("textformats.json_emit", "textformats.json_emit"),
    ("sbomfmt.ingest", "sbomfmt.ingest"),
    ("sbomfmt.detect", "sbomfmt.detect"),
    ("sbomfmt.parse", "sbomfmt.parse"),
    ("sbomfmt.emit", "sbomfmt.emit"),
    ("matching.match", "matching.match"),
    ("generators.emulate", "generators.emulate"),
    ("generators.bestpractice", "generators.bestpractice"),
    ("generators.scan", "metadata.parse"),
    ("resolver.dry_run", "resolver.dry_run"),
    ("diff.jaccard", "diff.jaccard"),
    ("quality.evaluate", "quality.evaluate"),
    ("vuln.assess", "vuln.assess"),
];

/// Spans timed once per run rather than per operation, reported in ms.
const ONCE: [&str; 3] = ["registry.generate", "corpus.build", "vuln.advisory_db"];

/// Every per-layer metric with its unit, in print order. Workloads that do
/// not exercise a layer report 0 for it.
fn layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("service.client_ms_per_op", "ms"),
        ("service.wait_ms_per_op", "ms"),
        ("respcache.hit_ratio", "ratio"),
        ("textformats.json_parse_mb_per_s", "MB/s"),
        ("sbomfmt.ingest_mb_per_s", "MB/s"),
        ("generators.parse_cache_hit_ratio", "ratio"),
        ("vuln.enrich_hit_ratio", "ratio"),
        ("parallel.utilization", "ratio"),
        ("trace.coverage", "ratio"),
        ("trace.ops", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (_, stem) in STAGES {
        names.push((format!("{stem}_ms_per_op"), "ms"));
        names.push((format!("{stem}_calls"), "count"));
    }
    for name in ONCE {
        names.push((format!("{name}_ms"), "ms"));
    }
    for artifact in corpus::artifact_names() {
        names.push((format!("experiments.{artifact}_ms"), "ms"));
    }
    for (metric, _, _) in E2e::default().named() {
        names.push((format!("trace.overhead_pct.{metric}"), "%"));
    }
    names
}

/// Per-layer metric values of a traced run.
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn new() -> Self {
        Layers(layer_names().into_iter().map(|(n, _)| (n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.0.contains_key(name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name.to_string(), value);
    }

    /// `num / den`, or 0 when nothing was counted.
    pub fn ratio(&mut self, name: &str, num: f64, den: f64) {
        self.set(name, if den > 0.0 { num / den } else { 0.0 });
    }

    /// Throughput in MB/s of `bytes` handled in `time`.
    pub fn bytes(&mut self, name: &str, bytes: usize, time: Duration) {
        self.ratio(name, bytes as f64 / 1e6, time.as_secs_f64());
    }

    /// Stage self times per op and call counts, plus the once-per-run
    /// spans, from a span summary.
    pub fn spans(&mut self, times: &BTreeMap<&str, (Duration, u64)>, ops: f64) {
        self.set("trace.ops", ops);
        for (span, stem) in STAGES {
            let (time, calls) = times.get(span).copied().unwrap_or_default();
            self.set(&format!("{stem}_ms_per_op"), time.as_secs_f64() * 1e3 / ops);
            if span != "generators.scan" {
                self.set(&format!("{stem}_calls"), calls as f64);
            }
        }
        for name in ONCE {
            let (time, _) = times.get(name).copied().unwrap_or_default();
            self.set(&format!("{name}_ms"), time.as_secs_f64() * 1e3);
        }
        for artifact in corpus::artifact_names() {
            let span = format!("experiments.{artifact}");
            let (time, _) = times.get(span.as_str()).copied().unwrap_or_default();
            self.set(&format!("{span}_ms"), time.as_secs_f64() * 1e3);
        }
    }

    fn overhead(&mut self, traced: &E2e, untraced: &E2e) {
        for ((name, _, t), (_, _, u)) in traced.named().into_iter().zip(untraced.named()) {
            let pct = if u != 0.0 { (t - u) / u * 100.0 } else { 0.0 };
            self.set(&format!("trace.overhead_pct.{name}"), pct);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: String,
    serve_bin: Option<String>,
    out: PathBuf,
    expect_digest: Option<u64>,
    record: bool,
    repeat_payload: bool,
    corpus_round: bool,
    corpus_replay: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        size: "full".into(),
        serve_bin: None,
        out: PathBuf::from("target/perfbench"),
        expect_digest: None,
        record: false,
        repeat_payload: false,
        corpus_round: false,
        corpus_replay: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?
            }
            "--trace" => args.trace = value()? == "1",
            "--size" => args.size = value()?,
            "--serve-bin" => args.serve_bin = Some(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            "--expect-digest" => {
                args.expect_digest = Some(
                    u64::from_str_radix(&value()?, 16).map_err(|_| "--expect-digest takes hex")?,
                )
            }
            "--record" => args.record = true,
            "--repeat-payload" => args.repeat_payload = true,
            "--corpus-round" => args.corpus_round = true,
            "--corpus-replay" => args.corpus_replay = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["full", "tiny"].contains(&args.size.as_str()) {
        return Err("--size is full or tiny".into());
    }
    Ok(args)
}

/// Workload sizes: the full size is what the benchmark measures; the tiny
/// size exists for the harness self-test.
struct Size {
    corpus_repos: usize,
    cold_requests: usize,
    cold_replay: usize,
    large_requests: usize,
    large_components: usize,
    large_replay: usize,
}

fn size(name: &str) -> Size {
    if name == "tiny" {
        Size {
            corpus_repos: 3,
            cold_requests: 30,
            cold_replay: 30,
            large_requests: 6,
            large_components: 150,
            large_replay: 6,
        }
    } else {
        Size {
            corpus_repos: 120,
            cold_requests: 3600,
            cold_replay: 900,
            large_requests: 120,
            large_components: 1750,
            large_replay: 40,
        }
    }
}

/// What a run reports, before formatting.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, &'static str, f64)>,
    /// Context for the line before the result: sample counts and the like.
    info: Vec<(String, String)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var("SBOMDIFF_FAULTS").is_ok_and(|v| !matches!(v.trim(), "" | "off")) {
        eprintln!("perfbench: refusing to run with SBOMDIFF_FAULTS set");
        return ExitCode::from(2);
    }
    let input_seed = args.seed % RECORDED_SEEDS;
    if args.corpus_round || args.corpus_replay {
        let repos = size(&args.size).corpus_repos;
        let done = if args.corpus_round {
            corpus::child_round(input_seed, repos, &args.out)
        } else {
            corpus::child_replay(input_seed, repos, &args.out)
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: corpus round failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let expected = args
        .expect_digest
        .or_else(|| stats::recorded_digest(&args.workload, &args.size, input_seed));
    if expected.is_none() && !args.record {
        eprintln!(
            "perfbench: no recorded digest for {} {} seed {input_seed}",
            args.workload, args.size
        );
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "corpus" => run_corpus(&args, input_seed, expected),
        "serve-cold" | "serve-large" => run_serve(&args, input_seed, expected),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut info = String::from("{\"perfbench\":{");
    let mut fields = vec![
        ("workload".to_string(), format!("\"{}\"", args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("input_seed".to_string(), input_seed.to_string()),
        (
            "available_parallelism".to_string(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("attempted".to_string(), outcome.attempted.to_string()),
        ("failed".to_string(), outcome.failed.to_string()),
    ];
    fields.extend(outcome.info.iter().cloned());
    info.push_str(
        &fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    info.push_str("}}");
    println!("{info}");
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Starts rounds until `seconds` have passed and at least [`MIN_ROUNDS`]
/// ran; a traced run makes one untraced and one traced round instead, and
/// a recording run one round.
fn rounds<R>(
    args: &Args,
    mut one: impl FnMut(bool) -> Result<R, String>,
) -> Result<Vec<R>, String> {
    if args.trace {
        return Ok(vec![one(false)?, one(true)?]);
    }
    if args.record {
        return Ok(vec![one(false)?]);
    }
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || start.elapsed() < Duration::from_secs(args.seconds) {
        out.push(one(false)?);
    }
    Ok(out)
}

/// The line before the result lists every round's end-to-end values.
fn per_round(rounds: &[E2e]) -> Vec<(String, String)> {
    E2e::default()
        .named()
        .iter()
        .enumerate()
        .map(|(i, (name, _, _))| {
            let values: Vec<String> = rounds
                .iter()
                .map(|r| format!("{:.4}", r.named()[i].2))
                .collect();
            (format!("rounds.{name}"), format!("[{}]", values.join(",")))
        })
        .collect()
}

fn e2e_metrics(e: &E2e) -> Vec<(String, &'static str, f64)> {
    e.named()
        .into_iter()
        .map(|(n, u, v)| (n.to_string(), u, v))
        .collect()
}

/// Layer self times below this share of in-process time leave too much
/// of an end-to-end number unexplained to pin a change on one layer.
const MIN_COVERAGE: f64 = 0.85;

fn layer_metrics(layers: Layers) -> Vec<(String, &'static str, f64)> {
    let coverage = layers.0["trace.coverage"];
    if coverage < MIN_COVERAGE {
        eprintln!(
            "perfbench: warning: layer self times cover {coverage:.3} of in-process time, below {MIN_COVERAGE}"
        );
    }
    layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = layers.0[&name];
            (name, unit, v)
        })
        .collect()
}

fn check_digest(args: &Args, expected: Option<u64>, got: u64, what: &str) -> bool {
    if args.record {
        println!(
            "digest {} {} {} {got:016x}",
            args.workload,
            args.size,
            args.seed % RECORDED_SEEDS
        );
        return true;
    }
    if expected == Some(got) {
        return true;
    }
    eprintln!(
        "perfbench: {what} digest {got:016x} differs from the recorded {:016x}",
        expected.unwrap_or(0)
    );
    false
}

fn run_corpus(args: &Args, seed: u64, expected: Option<u64>) -> Result<Outcome, String> {
    let mut n = 0;
    let mut dir = || {
        n += 1;
        args.out
            .join(format!("corpus-seed{seed}-{}-{n}", std::process::id()))
    };
    let rounds = rounds(args, |_| corpus::round(seed, &args.size, &dir()))?;
    let mut correct = true;
    let mut failed = 0;
    for r in &rounds {
        if !check_digest(args, expected, r.digest, "corpus CSV") {
            correct = false;
            failed += r.ops;
        }
    }
    let attempted = rounds.iter().map(|r| r.ops).sum();
    let mut info = vec![
        ("rounds".to_string(), rounds.len().to_string()),
        ("ops_per_round".to_string(), rounds[0].ops.to_string()),
        ("jobs".to_string(), rounds[0].jobs.to_string()),
        (
            "latency".to_string(),
            "\"batch duration per round; tail = highest round\"".into(),
        ),
    ];
    info.extend(per_round(&rounds.iter().map(|r| r.e2e).collect::<Vec<_>>()));
    let metrics = if args.trace {
        let (untraced, traced) = (&rounds[0], &rounds[1]);
        let mut layers = Layers::new();
        let replay = corpus::child("--corpus-replay", seed, &args.size, &dir())?;
        corpus::layer_metrics(traced, &replay, &mut layers);
        info.push((
            "replay_cpu_per_batch_cpu".to_string(),
            format!(
                "{:.3}",
                replay.value("replay_cpu_s") / traced.cpu.as_secs_f64()
            ),
        ));
        layers.overhead(&traced.e2e, &untraced.e2e);
        layer_metrics(layers)
    } else {
        let e2e: Vec<E2e> = rounds.iter().map(|r| r.e2e).collect();
        let mut s = E2e::summarize(&e2e);
        s.latency_tail_ms = e2e.iter().map(|e| e.latency_tail_ms).fold(0.0, f64::max);
        e2e_metrics(&s)
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        info,
    })
}

fn run_serve(args: &Args, seed: u64, expected: Option<u64>) -> Result<Outcome, String> {
    let bin = args
        .serve_bin
        .clone()
        .ok_or("serve workloads need --serve-bin <path to sbomdiff-serve>")?;
    if !Path::new(&bin).exists() {
        return Err(format!("{bin} does not exist; build sbomdiff-serve first"));
    }
    let sz = size(&args.size);
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let built = Instant::now();
    let (mut inputs, replay_count) = if args.workload == "serve-cold" {
        (
            inputs::serve_cold(seed, sz.cold_requests, jobs),
            sz.cold_replay,
        )
    } else {
        (
            inputs::serve_large(seed, sz.large_requests, sz.large_components, jobs),
            sz.large_replay,
        )
    };
    if args.repeat_payload {
        // Self-test hook: a repeated payload must show up as a
        // response-cache hit and fail the run.
        let first = inputs.measured[0].request.clone();
        let last = inputs.measured.len() - 1;
        inputs.measured[last].request = first;
        inputs.measured[last].body_len = inputs.measured[0].body_len;
    }
    let body_bytes: usize = inputs.measured.iter().map(|p| p.body_len).sum();
    eprintln!(
        "perfbench: {} inputs for seed {seed}: {} requests, {:.1} MB, built in {:.1} s",
        args.workload,
        inputs.measured.len(),
        body_bytes as f64 / 1e6,
        built.elapsed().as_secs_f64()
    );
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let rounds = rounds(args, |traced| {
        serve::round(
            &bin,
            &inputs,
            jobs,
            if traced { Some(&mut rec) } else { None },
        )
    })?;
    let mut correct = true;
    let mut failed = 0;
    for r in &rounds {
        let digest_ok = check_digest(args, expected, r.digest, "response");
        if r.cache_hits > 0.0 {
            eprintln!(
                "perfbench: {} response-cache hit(s) on a cold workload",
                r.cache_hits
            );
        }
        if r.failed > 0 {
            eprintln!("perfbench: {} request(s) failed", r.failed);
        }
        correct &= digest_ok && r.cache_hits == 0.0 && r.failed == 0;
        failed += if digest_ok { r.failed } else { r.samples };
    }
    let n = rounds[0].samples;
    let tail =
        stats::tail_percentile(n).map_or("max".to_string(), |q| format!("p{:.0}", q * 100.0));
    let mut info = vec![
        ("rounds".to_string(), rounds.len().to_string()),
        ("connections".to_string(), jobs.to_string()),
        ("latency_samples_per_round".to_string(), n.to_string()),
        ("latency_tail".to_string(), format!("\"{tail}\"")),
        (
            "request_mb".to_string(),
            format!("{:.3}", body_bytes as f64 / 1e6 / n as f64),
        ),
    ];
    info.extend(per_round(&rounds.iter().map(|r| r.e2e).collect::<Vec<_>>()));
    let attempted = rounds.iter().map(|r| r.samples).sum();
    let metrics = if args.trace {
        let (untraced, traced) = (&rounds[0], &rounds[1]);
        let mut layers = Layers::new();
        let replayed = replay_count.min(inputs.measured.len());
        serve::replay(&inputs, replayed, &traced.hashes, &mut rec, &mut layers)?;
        serve::layer_metrics(traced, &rec, replayed, &mut layers);
        layers.overhead(&traced.e2e, &untraced.e2e);
        let file = args
            .out
            .join(format!("{}-seed{seed}.spans.jsonl", args.workload));
        rec.write_jsonl(&file).map_err(|e| e.to_string())?;
        eprintln!("perfbench: spans written to {}", file.display());
        info.push(("replayed".to_string(), replayed.to_string()));
        layer_metrics(layers)
    } else {
        let e2e: Vec<E2e> = rounds.iter().map(|r| r.e2e).collect();
        e2e_metrics(&E2e::summarize(&e2e))
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        info,
    })
}
