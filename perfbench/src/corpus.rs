//! The `corpus` workload: `experiments::Context::prepare`, then every
//! artifact function `experiments all` calls, in process. Each round runs
//! in a child process of its own so that process-wide state (the string
//! interner, the peak RSS high-water mark, CPU counters) starts fresh.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sbomdiff_corpus::{Corpus, CorpusConfig};
use sbomdiff_diff::{jaccard, jaccard_canonical, key_set};
use sbomdiff_experiments::{experiments, Config, Context, SBOM_TOOL_FAILURE_RATE};
use sbomdiff_generators::{
    BestPracticeGenerator, ParseCache, SbomGenerator, ScanContext, ToolEmulator,
};
use sbomdiff_matching::{match_sboms, MatchConfig};
use sbomdiff_metadata::RepoFs;
use sbomdiff_parallel::par_map;
use sbomdiff_registry::Registries;
use sbomdiff_resolver::{dry_run, Platform};
use sbomdiff_types::{Ecosystem, ResolvedPackage, Sbom, Version};
use sbomdiff_vuln::{assess_cached, AdvisoryDb, EnrichCache};

use crate::inputs::BASE_SEED;
use crate::stats::{cpu_time, peak_rss_mb, Fnv};
use crate::trace::Recorder;
use crate::{E2e, Layers};

/// The artifact functions `experiments all` calls, in its order, with the
/// span each is recorded under.
const ARTIFACTS: [(&str, &str); 15] = [
    ("fig1", "experiments.fig1"),
    ("fig2", "experiments.fig2"),
    ("table1", "experiments.table1"),
    ("table2", "experiments.table2"),
    ("table3", "experiments.table3"),
    ("table4", "experiments.table4"),
    ("stats", "experiments.stats"),
    ("benchscore", "experiments.benchscore"),
    ("diagnostics", "experiments.diagnostics"),
    ("ablate", "experiments.ablate"),
    ("ranking", "experiments.ranking"),
    ("vulnimpact", "experiments.vulnimpact"),
    ("vuln", "experiments.vuln"),
    ("quality", "experiments.quality"),
    ("matching", "experiments.matching"),
];

pub fn artifact_names() -> impl Iterator<Item = &'static str> {
    ARTIFACTS.iter().map(|(a, _)| *a)
}

fn run_artifact(ctx: &Context, name: &str) {
    match name {
        "fig1" => experiments::fig1(ctx),
        "fig2" => experiments::fig2(ctx),
        "table1" => experiments::table1(ctx),
        "table2" => experiments::table2(ctx),
        "table3" => experiments::table3(ctx),
        "table4" => experiments::table4(ctx, true),
        "stats" => experiments::stats(ctx),
        "benchscore" => experiments::benchscore(ctx),
        "diagnostics" => experiments::diagnostics(ctx),
        "ablate" => experiments::ablate(ctx),
        "ranking" => experiments::ranking(ctx),
        "vulnimpact" => experiments::vulnimpact(ctx),
        "vuln" => experiments::vuln(ctx),
        "quality" => experiments::quality(ctx),
        _ => experiments::matching(ctx),
    }
}

/// Digest over every CSV in `dir`, in file-name order.
fn digest_csvs(dir: &Path) -> Result<u64, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".csv"))
        .collect();
    names.sort();
    let mut h = Fnv::default();
    for name in &names {
        let bytes = std::fs::read(dir.join(name)).map_err(|e| e.to_string())?;
        h.write(name.as_bytes());
        h.write_u64(bytes.len() as u64);
        h.write(&bytes);
    }
    Ok(h.finish())
}

fn config(seed: u64, repos: usize, dir: &Path) -> Config {
    Config {
        repos_per_language: repos,
        paper_weights: false,
        seed: BASE_SEED + seed,
        out_dir: dir.display().to_string(),
        jobs: 0,
    }
}

/// The child side of one round. Protocol lines on standard output start
/// with `@pb `; the artifacts' own tables are printed there too and are
/// ignored by the parent.
pub fn child_round(seed: u64, repos: usize, dir: &Path) -> Result<(), String> {
    let t0 = Instant::now();
    let ctx = Context::prepare(&config(seed, repos, dir));
    let setup = t0.elapsed();
    let cpu0 = cpu_time("self");
    let start = Instant::now();
    let mut rec = Recorder::new(start);
    for (name, span) in ARTIFACTS {
        rec.time(span, 0, None, || run_artifact(&ctx, name));
    }
    let batch = start.elapsed();
    let cpu = cpu_time("self").saturating_sub(cpu0);
    let rss = peak_rss_mb("self");
    let digest = digest_csvs(dir)?;
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    println!(
        "@pb round ops={} jobs={} setup_s={} batch_s={} cpu_s={} rss_mb={rss} digest={digest:016x}",
        ctx.corpus.len(),
        ctx.jobs(),
        setup.as_secs_f64(),
        batch.as_secs_f64(),
        cpu.as_secs_f64()
    );
    print_spans(&rec);
    Ok(())
}

/// The child side of a traced run's replay: a fresh process (so that the
/// string interner starts as cold as it does for the artifacts) builds the
/// same context and replays the artifacts' per-repository stage calls.
pub fn child_replay(seed: u64, repos: usize, dir: &Path) -> Result<(), String> {
    let ctx = Context::prepare(&config(seed, repos, dir));
    let mut rec = Recorder::new(Instant::now());
    replay(&ctx, &mut rec);
    print_spans(&rec);
    let trace_file = dir.with_extension("spans.jsonl");
    rec.write_jsonl(&trace_file).map_err(|e| e.to_string())?;
    eprintln!("perfbench: spans written to {}", trace_file.display());
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())
}

fn print_spans(rec: &Recorder) {
    for (name, (time, calls)) in rec.self_times() {
        println!("@pb span {name} {} {calls}", time.as_nanos());
    }
}

/// What a child process reports: `@pb round k=v ...` fields, one
/// `@pb span <name> <self ns> <calls>` line per span name, and
/// `@pb value <name> <v>` counters.
pub struct Report {
    fields: BTreeMap<String, String>,
    pub spans: Vec<(String, Duration, u64)>,
    pub values: Vec<(String, f64)>,
}

impl Report {
    /// A `@pb value` counter, or 0 when the child reported none.
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Runs one child process in `mode` (`--corpus-round` or
/// `--corpus-replay`) and reads its report back.
pub fn child(mode: &str, seed: u64, size: &str, dir: &Path) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args([mode, "--seed", &seed.to_string(), "--size", size, "--out"])
        .arg(dir)
        .env_remove("SBOMDIFF_JOBS")
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        stdout.read_to_string(&mut out).map_err(|e| e.to_string())?;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{mode} child exited with {status}"));
    }
    let mut report = Report {
        fields: BTreeMap::new(),
        spans: Vec::new(),
        values: Vec::new(),
    };
    for line in out.lines().filter_map(|l| l.strip_prefix("@pb ")) {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["round", kv @ ..] => {
                for (k, v) in kv.iter().filter_map(|f| f.split_once('=')) {
                    report.fields.insert(k.to_string(), v.to_string());
                }
            }
            ["span", name, ns, calls] => report.spans.push((
                name.to_string(),
                Duration::from_nanos(ns.parse().unwrap_or(0)),
                calls.parse().unwrap_or(0),
            )),
            ["value", name, v] => report
                .values
                .push((name.to_string(), v.parse().unwrap_or(0.0))),
            _ => {}
        }
    }
    Ok(report)
}

/// One round's end-to-end view, read back from its child.
pub struct Round {
    pub e2e: E2e,
    pub ops: usize,
    pub jobs: usize,
    pub digest: u64,
    pub cpu: Duration,
    pub spans: Vec<(String, Duration, u64)>,
}

pub fn round(seed: u64, size: &str, dir: &Path) -> Result<Round, String> {
    let report = child("--corpus-round", seed, size, dir)?;
    let num = |k: &str| -> Result<f64, String> {
        report
            .fields
            .get(k)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("corpus round reported no {k}"))
    };
    let ops = num("ops")? as usize;
    let batch_s = num("batch_s")?;
    let cpu_s = num("cpu_s")?;
    Ok(Round {
        e2e: E2e {
            setup_s: num("setup_s")?,
            ops_per_s: ops as f64 / batch_s,
            // A batch user waits for the whole batch: its one latency is
            // the batch's duration.
            latency_p50_ms: batch_s * 1e3,
            latency_tail_ms: batch_s * 1e3,
            cpu_ms_per_op: cpu_s * 1e3 / ops as f64,
            peak_rss_mb: num("rss_mb")?,
        },
        ops,
        jobs: num("jobs")? as usize,
        digest: report
            .fields
            .get("digest")
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or("corpus round reported no digest")?,
        cpu: Duration::from_secs_f64(cpu_s),
        spans: report.spans,
    })
}

/// Per-repository replay of the stage calls the artifacts make, under
/// `par_map` at the run's job count, with a fresh parse cache and
/// enrichment cache. Each repository is one `corpus.repo` span whose
/// children are the calls below, with the multiplicities the artifacts
/// use: the four emulators through one shared scan (`sboms`), the fig2
/// pairs' `key_set`/`jaccard`, the Python dry runs of table3, stats and
/// vulnimpact, the best-practice SBOM that vuln and quality each generate,
/// vuln's four `assess_cached`, quality's five `evaluate`s and matching's
/// six `match_sboms`.
fn replay(ctx: &Context, rec: &mut Recorder) {
    let jobs = ctx.jobs();
    let seed = ctx.config.seed;
    rec.time("registry.generate", 0, None, || Registries::generate(seed));
    rec.time("corpus.build", 0, None, || {
        Corpus::build_with_jobs(
            &ctx.registries,
            &CorpusConfig {
                repos_per_language: ctx.config.repos_per_language,
                seed: seed ^ 0xc0ffee,
            },
            jobs,
        )
    });
    let (db, _) = rec.time("vuln.advisory_db", 0, None, || {
        AdvisoryDb::generate(&ctx.registries, seed, 0.25)
    });
    let tools: [ToolEmulator<'_>; 4] = [
        ToolEmulator::trivy(),
        ToolEmulator::syft(),
        ToolEmulator::sbom_tool(&ctx.registries, SBOM_TOOL_FAILURE_RATE),
        ToolEmulator::github_dg(),
    ];
    let best = BestPracticeGenerator::new(&ctx.registries);
    let parse_cache = ParseCache::new();
    let enrich = EnrichCache::new();
    let platform = Platform::default();
    let repos: Vec<(Ecosystem, &RepoFs)> = Ecosystem::ALL
        .iter()
        .flat_map(|&eco| ctx.corpus.language(eco).iter().map(move |r| (eco, r)))
        .collect();
    let cpu0 = cpu_time("self");
    let epoch = Instant::now();
    let per_repo = par_map(jobs, &repos, |idx, &(eco, repo)| {
        let op = idx as u64;
        let mut r = Recorder::new(epoch);
        let root_start = Instant::now();
        let (h0, m0) = (parse_cache.hits(), parse_cache.misses());
        let scan_start = Instant::now();
        let scan = ScanContext::new(repo, &parse_cache);
        let sboms: Vec<Sbom> = tools.iter().map(|t| t.generate_with_scan(&scan)).collect();
        r.push("generators.scan", op, None, scan_start, Instant::now());
        let cold = (parse_cache.hits() - h0, parse_cache.misses() - m0);
        r.time("generators.emulate", op, Some(0), || {
            tools
                .iter()
                .map(|t| t.generate_with_scan(&scan))
                .collect::<Vec<_>>()
        });
        const PAIRS: [(usize, usize); 6] = [(3, 1), (3, 0), (1, 0), (3, 2), (0, 2), (1, 2)];
        r.time("diff.jaccard", op, None, || {
            PAIRS.map(|(a, b)| {
                (
                    jaccard(&key_set(&sboms[a]), &key_set(&sboms[b])),
                    jaccard_canonical(&sboms[a], &sboms[b]),
                )
            })
        });
        if eco == Ecosystem::Python {
            let registry = ctx.registries.for_ecosystem(Ecosystem::Python);
            let runs = if repo.text("requirements.txt").is_some() {
                3
            } else {
                2
            };
            for _ in 0..runs {
                r.time("resolver.dry_run", op, None, || {
                    dry_run(registry, &repo.text_files(), "requirements.txt", &platform)
                });
            }
        }
        let (reference, _) = r.time("generators.bestpractice", op, None, || best.generate(repo));
        r.time("generators.bestpractice", op, None, || best.generate(repo));
        let truth: Vec<ResolvedPackage> = reference
            .components()
            .iter()
            .filter_map(|c| {
                let version = Version::parse(c.version.as_deref()?).ok()?;
                Some(ResolvedPackage::direct(c.name.clone(), version))
            })
            .collect();
        r.time("vuln.assess", op, None, || {
            sboms
                .iter()
                .map(|s| assess_cached(&enrich, &db, eco, s, &truth))
                .collect::<Vec<_>>()
        });
        r.time("quality.evaluate", op, None, || {
            sboms
                .iter()
                .chain(std::iter::once(&reference))
                .map(sbomdiff_quality::evaluate)
                .collect::<Vec<_>>()
        });
        let cfg = MatchConfig::default();
        r.time("matching.match", op, None, || {
            PAIRS.map(|(a, b)| match_sboms(&sboms[a], &sboms[b], &cfg))
        });
        // Every span above without a parent belongs to this repository.
        let root = r.spans.len();
        for s in r.spans.iter_mut().filter(|s| s.parent.is_none()) {
            s.parent = Some(root);
        }
        r.push("corpus.repo", op, None, root_start, Instant::now());
        (r, cold)
    });
    let wall = epoch.elapsed();
    let cpu = cpu_time("self").saturating_sub(cpu0);
    let (mut hits, mut misses) = (0, 0);
    let mut busy = Duration::ZERO;
    for (r, (h, m)) in per_repo {
        busy += r.spans.last().map_or(Duration::ZERO, |s| s.duration());
        hits += h;
        misses += m;
        rec.absorb(r);
    }
    let enrich = enrich.stats();
    println!("@pb value parse_hits {hits}");
    println!("@pb value parse_misses {misses}");
    println!("@pb value enrich_hits {}", enrich.hits);
    println!("@pb value enrich_misses {}", enrich.misses);
    println!(
        "@pb value utilization {}",
        busy.as_secs_f64() / (wall.as_secs_f64() * jobs as f64)
    );
    println!("@pb value replay_cpu_s {}", cpu.as_secs_f64());
}

/// Per-layer metrics of a traced corpus round and its replay.
pub fn layer_metrics(traced: &Round, replay: &Report, layers: &mut Layers) {
    let n = traced.ops as f64;
    let times = traced
        .spans
        .iter()
        .chain(&replay.spans)
        .map(|(name, t, c)| (name.as_str(), (*t, *c)))
        .collect();
    layers.spans(&times, n);
    let value = |k: &str| replay.value(k);
    let hits = value("parse_hits");
    let misses = value("parse_misses");
    layers.ratio("generators.parse_cache_hit_ratio", hits, hits + misses);
    layers.set("metadata.parse_calls", misses);
    let (eh, em) = (value("enrich_hits"), value("enrich_misses"));
    layers.ratio("vuln.enrich_hit_ratio", eh, eh + em);
    layers.set("parallel.utilization", value("utilization"));
    // The replay's layer self times against the CPU time the replay took,
    // both measured over the same interval: the replay redoes the
    // artifacts' per-repository work (its CPU time is reported next to the
    // batch's), and the self times say how much of it the layer calls
    // explain.
    let stages: Duration = replay
        .spans
        .iter()
        .filter(|(name, _, _)| crate::STAGES.iter().any(|(s, _)| s == name))
        .map(|(_, t, _)| *t)
        .sum();
    layers.ratio(
        "trace.coverage",
        stages.as_secs_f64(),
        value("replay_cpu_s"),
    );
}
