//! Implementations of the per-artifact experiment pipelines.
//!
//! Every pipeline that scans the corpus fans out over `(repository × tool)`
//! work items through [`sbomdiff_parallel::par_map`]; SBOMs, corpus
//! repositories and parsed manifests are all pure functions of the master
//! seed, so the CSV artifacts are byte-identical for every `--jobs` value.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use sbomdiff_attack as attack;
use sbomdiff_benchx as benchx;
use sbomdiff_corpus::{Corpus, CorpusConfig, CorpusStats};
use sbomdiff_diff::{
    diagnostic_totals, duplicate_rate, jaccard, key_set, Histogram, PrecisionRecall, TextTable,
};
use sbomdiff_generators::{
    BestPracticeGenerator, ParseCache, SbomGenerator, ScanContext, SupportMatrix, ToolEmulator,
    ToolId,
};
use sbomdiff_matching::{match_sboms, MatchConfig, MatchTier};
use sbomdiff_parallel::{par_map, Profiler};
use sbomdiff_registry::Registries;
use sbomdiff_resolver::{dry_run, Platform};
use sbomdiff_types::{DiagClass, Ecosystem, Sbom, Version};
use sbomdiff_vuln::ImpactCounts;

/// sbom-tool registry failure rate used across experiments (§V-C:
/// resolution "often fails").
pub const SBOM_TOOL_FAILURE_RATE: f64 = 0.18;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Repositories per language (the paper used 384–2367 per language;
    /// the default keeps full-suite runtime reasonable while preserving
    /// the population shapes).
    pub repos_per_language: usize,
    /// Scale language sizes by the paper's dataset mix (§III-B: 535
    /// Python, 819 Ruby, 384 PHP, 398 Java, 1019 Swift, 700 C#, 994 Rust,
    /// 2367 Go, 660 JS) instead of equal sizes. `repos_per_language`
    /// becomes the *average*.
    pub paper_weights: bool,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSVs.
    pub out_dir: String,
    /// Worker threads for the `(repository × tool)` fan-out (`--jobs N`).
    /// Results are byte-identical for every value; `0` means the default
    /// (`SBOMDIFF_JOBS` or the machine's available parallelism).
    pub jobs: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            repos_per_language: 120,
            paper_weights: false,
            seed: 2024,
            out_dir: "results".into(),
            jobs: 0,
        }
    }
}

/// The paper's per-language repository counts (§III-B), total 7,876.
pub const PAPER_LANGUAGE_COUNTS: [(Ecosystem, usize); 9] = [
    (Ecosystem::Python, 535),
    (Ecosystem::Ruby, 819),
    (Ecosystem::Php, 384),
    (Ecosystem::Java, 398),
    (Ecosystem::Swift, 1019),
    (Ecosystem::DotNet, 700),
    (Ecosystem::Rust, 994),
    (Ecosystem::Go, 2367),
    (Ecosystem::JavaScript, 660),
];

/// Shared experiment state: registries, corpus, the metadata-parse
/// counters, an SBOM cache, and the per-phase profiler.
pub struct Context {
    /// Configuration in effect.
    pub config: Config,
    /// Synthetic registries.
    pub registries: Registries,
    /// Synthetic corpus.
    pub corpus: Corpus,
    jobs: usize,
    parse_cache: ParseCache,
    profiler: Profiler,
    sbom_cache: Mutex<BTreeMap<Ecosystem, Arc<Vec<[Sbom; 4]>>>>,
}

impl Context {
    /// Generates registries and corpus.
    pub fn prepare(config: &Config) -> Context {
        let jobs = sbomdiff_parallel::Jobs::new(config.jobs).get();
        eprintln!(
            "[setup] generating registries (seed {}) and corpus ({} repos/language, {jobs} job(s))...",
            config.seed, config.repos_per_language
        );
        let profiler = Profiler::new();
        let registries = profiler.phase("registries", 0, || Registries::generate(config.seed));
        let corpus = profiler.phase("corpus", 0, || {
            if config.paper_weights {
                // Scale each language by the paper's mix; the mean stays at
                // `repos_per_language`.
                let mean_paper = 7876.0 / 9.0;
                let mut map = std::collections::BTreeMap::new();
                for (eco, paper_n) in PAPER_LANGUAGE_COUNTS {
                    let n = ((paper_n as f64 / mean_paper) * config.repos_per_language as f64)
                        .round()
                        .max(1.0) as usize;
                    map.insert(
                        eco,
                        Corpus::build_language_with_jobs(
                            &registries,
                            &CorpusConfig {
                                repos_per_language: n,
                                seed: config.seed ^ 0xc0ffee,
                            },
                            eco,
                            jobs,
                        ),
                    );
                }
                Corpus::from_map(map)
            } else {
                Corpus::build_with_jobs(
                    &registries,
                    &CorpusConfig {
                        repos_per_language: config.repos_per_language,
                        seed: config.seed ^ 0xc0ffee,
                    },
                    jobs,
                )
            }
        });
        std::fs::create_dir_all(&config.out_dir).ok();
        Context {
            config: config.clone(),
            registries,
            corpus,
            jobs,
            parse_cache: ParseCache::new(),
            profiler,
            sbom_cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// The effective worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// SBOMs of all four studied tools for every repo of a language
    /// (cached). The first call per language fans out one work item per
    /// repository; each worker builds one [`ScanContext`] (one walk, one
    /// parse per file and dialect) and derives all four profiles' SBOMs
    /// from it, counting its parses in the run's [`ParseCache`].
    /// Deterministic: each SBOM depends only on the repository content and
    /// tool profile (the flaky sbom-tool registry is seeded per
    /// `(repository, tool)`), so worker count and scheduling never change
    /// the result.
    pub fn sboms(&self, eco: Ecosystem) -> Arc<Vec<[Sbom; 4]>> {
        if let Some(cached) = self.sbom_cache.lock().expect("sbom cache").get(&eco) {
            return Arc::clone(cached);
        }
        let tools: [ToolEmulator<'_>; 4] = [
            ToolEmulator::trivy(),
            ToolEmulator::syft(),
            ToolEmulator::sbom_tool(&self.registries, SBOM_TOOL_FAILURE_RATE),
            ToolEmulator::github_dg(),
        ];
        let repos = self.corpus.language(eco);
        let cells = repos.len() as u64 * 4;
        let out: Arc<Vec<[Sbom; 4]>> = self.profiler.phase(&format!("sboms {eco}"), cells, || {
            Arc::new(par_map(self.jobs, repos, |_, repo| {
                let scan = ScanContext::new(repo, &self.parse_cache);
                [
                    tools[0].generate_with_scan(&scan),
                    tools[1].generate_with_scan(&scan),
                    tools[2].generate_with_scan(&scan),
                    tools[3].generate_with_scan(&scan),
                ]
            }))
        });
        self.sbom_cache
            .lock()
            .expect("sbom cache")
            .insert(eco, Arc::clone(&out));
        out
    }

    /// Times `f` as a named experiment phase (the report is printed by
    /// [`report_timing`](Context::report_timing)).
    pub fn phase<R>(&self, name: &str, items: u64, f: impl FnOnce() -> R) -> R {
        self.profiler.phase(name, items, f)
    }

    /// Prints the per-phase timing/counter report to stderr. CSV artifacts
    /// never contain wall-clock values, so outputs stay reproducible.
    pub fn report_timing(&self) {
        eprintln!("{}", self.profiler.report(self.jobs));
        eprintln!("parse cache: {}", self.parse_cache.stats());
    }

    fn write(&self, file: &str, content: &str) {
        let path = format!("{}/{}", self.config.out_dir, file);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("[warn] could not write {path}: {e}");
        } else {
            eprintln!("[out] {path}");
        }
    }
}

const TOOL_ORDER: [ToolId; 4] = [
    ToolId::Trivy,
    ToolId::Syft,
    ToolId::SbomTool,
    ToolId::GithubDg,
];

/// Fig. 1: package counts across languages, x sorted by GitHub DG count.
pub fn fig1(ctx: &Context) {
    println!("\n================ Figure 1: package counts per repository ================");
    // The paper's per-panel frontrunners (§IV-A).
    let expected_winner: BTreeMap<Ecosystem, &str> = [
        (Ecosystem::Python, "GitHub DG"),
        (Ecosystem::Php, "GitHub DG"),
        (Ecosystem::Ruby, "GitHub DG"),
        (Ecosystem::Rust, "GitHub DG"),
        (Ecosystem::DotNet, "sbom-tool"),
        (Ecosystem::Go, "Trivy/sbom-tool"),
        (Ecosystem::Swift, "Trivy/sbom-tool"),
        (Ecosystem::JavaScript, "Syft"),
    ]
    .into();
    let mut summary = TextTable::new([
        "Language",
        "Trivy",
        "Syft",
        "sbom-tool",
        "GitHub DG",
        "winner",
        "paper says",
    ]);
    for eco in Ecosystem::ALL {
        let sboms = ctx.sboms(eco);
        let mut rows: Vec<[usize; 4]> = sboms
            .iter()
            .map(|s| [s[0].len(), s[1].len(), s[2].len(), s[3].len()])
            .collect();
        // x-axis: repository id sorted by GitHub DG count.
        rows.sort_by_key(|r| r[3]);
        let mut csv = String::from("rank,trivy,syft,sbom_tool,github_dg\n");
        for (i, r) in rows.iter().enumerate() {
            csv.push_str(&format!("{i},{},{},{},{}\n", r[0], r[1], r[2], r[3]));
        }
        ctx.write(
            &format!("fig1_{}.csv", eco.label().to_lowercase().replace('.', "")),
            &csv,
        );
        let totals: [usize; 4] = rows.iter().fold([0; 4], |mut acc, r| {
            for i in 0..4 {
                acc[i] += r[i];
            }
            acc
        });
        let winner_idx = (0..4).max_by_key(|&i| totals[i]).unwrap_or(0);
        summary.row([
            eco.label().to_string(),
            totals[0].to_string(),
            totals[1].to_string(),
            totals[2].to_string(),
            totals[3].to_string(),
            TOOL_ORDER[winner_idx].label().to_string(),
            expected_winner.get(&eco).unwrap_or(&"n/a").to_string(),
        ]);
    }
    println!("{summary}");
    println!("(totals are package counts summed over repositories; duplicates included, as the tools report them)");
    ctx.write("fig1_summary.csv", &summary.to_csv());
}

/// Fig. 2: Jaccard-similarity histograms for the six tool pairs.
pub fn fig2(ctx: &Context) {
    println!("\n================ Figure 2: Jaccard similarity distributions ================");
    let pairs: [(usize, usize, &str); 6] = [
        (3, 1, "GitHub vs Syft"),
        (3, 0, "GitHub vs Trivy"),
        (1, 0, "Syft vs Trivy"),
        (3, 2, "GitHub vs sbom-tool"),
        (0, 2, "Trivy vs sbom-tool"),
        (1, 2, "Syft vs sbom-tool"),
    ];
    let mut table = TextTable::new([
        "Pair",
        "mean J",
        "mean J (canonical)",
        "share < 0.5",
        "samples",
    ]);
    let mut means: Vec<(&str, f64)> = Vec::new();
    for (a, b, label) in pairs {
        let mut hist = Histogram::unit();
        let mut sum = 0.0;
        let mut canon_sum = 0.0;
        let mut n = 0usize;
        for eco in Ecosystem::ALL {
            for sboms in ctx.sboms(eco).iter() {
                let (sa, sb) = (key_set(&sboms[a]), key_set(&sboms[b]));
                if let Some(j) = jaccard(&sa, &sb) {
                    hist.add(j);
                    sum += j;
                    // The canonical metric forgives the purely cosmetic
                    // §V-E differences (name spellings, `v` prefixes); the
                    // gap between the two columns is the cosmetic share of
                    // the disagreement.
                    canon_sum +=
                        sbomdiff_diff::jaccard_canonical(&sboms[a], &sboms[b]).unwrap_or(0.0);
                    n += 1;
                }
            }
        }
        let mean = if n == 0 { 0.0 } else { sum / n as f64 };
        let canon_mean = if n == 0 { 0.0 } else { canon_sum / n as f64 };
        means.push((label, mean));
        table.row([
            label.to_string(),
            format!("{mean:.3}"),
            format!("{canon_mean:.3}"),
            format!("{:.1}%", hist.share_below(0.5) * 100.0),
            n.to_string(),
        ]);
        let file = format!("fig2_{}.csv", label.to_lowercase().replace([' ', '.'], "_"));
        ctx.write(&file, &hist.to_csv());
    }
    println!("{table}");
    let most_similar = means
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(l, _)| *l)
        .unwrap_or("-");
    println!("most similar pair: {most_similar}  (paper: GitHub vs Syft; majority of pairs substantially dissimilar)");
    ctx.write("fig2_summary.csv", &table.to_csv());
}

/// Table I: duplicate-package rates.
pub fn table1(ctx: &Context) {
    println!("\n================ Table I: rate of duplicate packages in SBOMs ================");
    // Paper's Table I, % (Syft, Trivy, GitHub DG, sbom-tool).
    let paper: BTreeMap<Ecosystem, [f64; 4]> = [
        (Ecosystem::Python, [14.05, 12.56, 13.54, 13.71]),
        (Ecosystem::Java, [12.76, 15.01, 19.93, 18.89]),
        (Ecosystem::JavaScript, [17.46, 17.34, 18.89, 19.42]),
        (Ecosystem::Go, [9.97, 6.69, 11.03, 6.58]),
        (Ecosystem::DotNet, [17.38, 12.43, 18.01, 20.94]),
        (Ecosystem::Php, [13.76, 11.77, 14.53, 23.76]),
        (Ecosystem::Ruby, [13.56, 9.1, 15.84, 12.39]),
        (Ecosystem::Rust, [13.19, 11.37, 19.18, 13.83]),
        (Ecosystem::Swift, [1.37, 2.28, 6.98, 3.39]),
    ]
    .into();
    let mut table = TextTable::new([
        "Language",
        "Syft",
        "(paper)",
        "Trivy",
        "(paper)",
        "GitHub DG",
        "(paper)",
        "sbom-tool",
        "(paper)",
    ]);
    for eco in Ecosystem::ALL {
        let sboms = ctx.sboms(eco);
        // Column order here is Table I's: Syft, Trivy, GitHub DG, sbom-tool.
        let rates = [
            duplicate_rate(sboms.iter().map(|s| &s[1])),
            duplicate_rate(sboms.iter().map(|s| &s[0])),
            duplicate_rate(sboms.iter().map(|s| &s[3])),
            duplicate_rate(sboms.iter().map(|s| &s[2])),
        ];
        let p = paper.get(&eco).copied().unwrap_or([0.0; 4]);
        table.row([
            eco.label().to_string(),
            format!("{:.2}%", rates[0] * 100.0),
            format!("{:.2}%", p[0]),
            format!("{:.2}%", rates[1] * 100.0),
            format!("{:.2}%", p[1]),
            format!("{:.2}%", rates[2] * 100.0),
            format!("{:.2}%", p[2]),
            format!("{:.2}%", rates[3] * 100.0),
            format!("{:.2}%", p[3]),
        ]);
    }
    println!("{table}");
    ctx.write("table1_duplicates.csv", &table.to_csv());
}

/// Table II: supported file types.
pub fn table2(ctx: &Context) {
    println!("\n================ Table II: supported file types ================");
    let matrices: Vec<(ToolId, SupportMatrix)> = TOOL_ORDER
        .iter()
        .map(|t| (*t, SupportMatrix::for_tool(*t)))
        .collect();
    let mut table = TextTable::new([
        "File type",
        "Trivy",
        "Syft",
        "sbom-tool",
        "GitHub DG",
        "matches paper",
    ]);
    for (kind, t, s, m, g) in sbomdiff_generators::support::TABLE_II {
        let cells: Vec<bool> = matrices.iter().map(|(_, mx)| mx.supports(kind)).collect();
        let ok = cells == vec![t, s, m, g];
        let check = |b: bool| if b { "✓" } else { "✗" };
        table.row([
            kind.label().to_string(),
            check(cells[0]).to_string(),
            check(cells[1]).to_string(),
            check(cells[2]).to_string(),
            check(cells[3]).to_string(),
            if ok { "yes" } else { "DIVERGES" }.to_string(),
        ]);
    }
    println!("{table}");
    for (tool, matrix) in &matrices {
        let claimed: Vec<&str> = matrix.claimed_only().map(|k| k.label()).collect();
        if !claimed.is_empty() {
            println!(
                "note: {} claims {} but extracts nothing from it (§V-A)",
                tool.label(),
                claimed.join(", ")
            );
        }
    }
    ctx.write("table2_support.csv", &table.to_csv());
}

/// Table III: accuracy on requirements.txt against the pip dry run.
pub fn table3(ctx: &Context) {
    println!("\n================ Table III: SBOM accuracy on requirements.txt ================");
    let repos = ctx.corpus.language(Ecosystem::Python);
    let sboms = ctx.sboms(Ecosystem::Python);
    let registry = ctx.registries.for_ecosystem(Ecosystem::Python);
    let platform = Platform::default();
    let mut totals = [PrecisionRecall::default(); 4];
    let per_repo = ctx.phase("table3 ground truth", repos.len() as u64, || {
        par_map(ctx.jobs(), repos, |idx, repo| {
            repo.text("requirements.txt")?;
            let truth: std::collections::BTreeSet<(String, String)> =
                dry_run(registry, &repo.text_files(), "requirements.txt", &platform)
                    .keys()
                    .collect();
            let mut scores = [PrecisionRecall::default(); 4];
            for (i, sbom) in sboms[idx].iter().enumerate() {
                // Reported pairs are compared verbatim against pip's
                // canonical output, as the paper's ground-truth comparison
                // does: spelling differences (`Flask_Login` vs
                // `flask-login`) count as misses, which is exactly the
                // §V-E naming hazard.
                let reported: std::collections::BTreeSet<(String, String)> = sbom
                    .components()
                    .iter()
                    .map(|c| {
                        let version = c
                            .version
                            .as_deref()
                            .map(|v| {
                                Version::parse(v)
                                    .map(|p| p.canonical())
                                    .unwrap_or_else(|_| v.to_string())
                            })
                            .unwrap_or_default();
                        (c.name.to_string(), version)
                    })
                    .collect();
                scores[i] = PrecisionRecall::score(&reported, &truth);
            }
            Some(scores)
        })
    });
    for scores in per_repo.into_iter().flatten() {
        for (total, score) in totals.iter_mut().zip(scores) {
            total.merge(score);
        }
    }
    let paper_p = [0.25, 0.25, 0.74, 0.13];
    let paper_r = [0.10, 0.10, 0.73, 0.08];
    let mut table = TextTable::new(["Metric", "Trivy", "Syft", "sbom-tool", "GitHub DG"]);
    table.row([
        "Precision".to_string(),
        format!("{:.2}", totals[0].precision()),
        format!("{:.2}", totals[1].precision()),
        format!("{:.2}", totals[2].precision()),
        format!("{:.2}", totals[3].precision()),
    ]);
    table.row([
        "Precision (paper)".to_string(),
        format!("{:.2}", paper_p[0]),
        format!("{:.2}", paper_p[1]),
        format!("{:.2}", paper_p[2]),
        format!("{:.2}", paper_p[3]),
    ]);
    table.row([
        "Recall".to_string(),
        format!("{:.2}", totals[0].recall()),
        format!("{:.2}", totals[1].recall()),
        format!("{:.2}", totals[2].recall()),
        format!("{:.2}", totals[3].recall()),
    ]);
    table.row([
        "Recall (paper)".to_string(),
        format!("{:.2}", paper_r[0]),
        format!("{:.2}", paper_r[1]),
        format!("{:.2}", paper_r[2]),
        format!("{:.2}", paper_r[3]),
    ]);
    println!("{table}");
    ctx.write("table3_accuracy.csv", &table.to_csv());
}

/// Table IV: attack samples against the tools (optionally with the
/// corpus-wide evasion campaign).
pub fn table4(ctx: &Context, campaign: bool) {
    println!("\n================ Table IV: requirements.txt attack samples ================");
    let outcomes = attack::evaluate::evaluate_catalog(&ctx.registries, true);
    let mut table = TextTable::new([
        "Sample",
        "Trivy",
        "Syft",
        "sbom-tool",
        "GitHub DG",
        "matches paper",
    ]);
    for o in &outcomes {
        table.row([
            o.display.to_string(),
            o.cells[0].to_string(),
            o.cells[1].to_string(),
            o.cells[2].to_string(),
            o.cells[3].to_string(),
            if o.matches_expectation {
                "yes"
            } else {
                "DIVERGES"
            }
            .to_string(),
        ]);
    }
    println!("{table}");
    println!("(first six rows are the paper's Table IV; '-' = not detected)");
    ctx.write("table4_attack.csv", &table.to_csv());

    if campaign {
        println!("\n---- §VI damage: corpus-wide evasion campaign (Python) ----");
        let repos = ctx.corpus.language(Ecosystem::Python);
        let reports = attack::campaign::run_all_campaigns(repos, &ctx.registries, ctx.config.seed);
        let mut ctable = TextTable::new([
            "Sample",
            "Trivy evade",
            "Syft evade",
            "sbom-tool evade",
            "GitHub evade",
        ]);
        for (id, r) in &reports {
            ctable.row([
                id.to_string(),
                format!("{:.0}%", r.evasion_rate(0) * 100.0),
                format!("{:.0}%", r.evasion_rate(1) * 100.0),
                format!("{:.0}%", r.evasion_rate(2) * 100.0),
                format!("{:.0}%", r.evasion_rate(3) * 100.0),
            ]);
        }
        println!("{ctable}");
        ctx.write("table4_campaign.csv", &ctable.to_csv());
    }
}

/// Diagnostic census: the classified parse/scan diagnostics (DESIGN.md
/// §13 taxonomy) rolled up per `(language, tool, class)`, plus a per-repo
/// CSV per language so individual noisy repositories can be located. The
/// paper's §V root causes are qualitative; these counters show where and
/// how often each failure class actually fires across the corpus.
pub fn diagnostics(ctx: &Context) {
    println!("\n================ Diagnostic census (taxonomy of DESIGN.md §13) ================");
    let mut header: Vec<String> = vec!["Language".into(), "Tool".into()];
    header.extend(DiagClass::ALL.iter().map(|c| c.label().to_string()));
    header.push("total".into());
    let mut table = TextTable::new(header);
    let mut grand = [0usize; 4];
    for eco in Ecosystem::ALL {
        let sboms = ctx.sboms(eco);
        // Per-repo columns: one row per repository, one diagnostic count
        // per tool (rows follow corpus order, which is seed-stable).
        let mut csv = String::from("repo,trivy,syft,sbom_tool,github_dg\n");
        for (i, s) in sboms.iter().enumerate() {
            csv.push_str(&format!(
                "{i},{},{},{},{}\n",
                s[0].diagnostics().len(),
                s[1].diagnostics().len(),
                s[2].diagnostics().len(),
                s[3].diagnostics().len(),
            ));
        }
        ctx.write(
            &format!(
                "diagnostics_{}.csv",
                eco.label().to_lowercase().replace('.', "")
            ),
            &csv,
        );
        for (t, tool) in TOOL_ORDER.iter().enumerate() {
            let totals = diagnostic_totals(sboms.iter().map(|s| &s[t]));
            let total: usize = totals.values().sum();
            grand[t] += total;
            let mut row = vec![eco.label().to_string(), tool.label().to_string()];
            row.extend(
                DiagClass::ALL
                    .iter()
                    .map(|c| totals.get(c).copied().unwrap_or(0).to_string()),
            );
            row.push(total.to_string());
            table.row(row);
        }
    }
    println!("{table}");
    for (t, tool) in TOOL_ORDER.iter().enumerate() {
        println!("{}: {} diagnostics corpus-wide", tool.label(), grand[t]);
    }
    ctx.write("diagnostics_summary.csv", &table.to_csv());
}

/// §V population statistics of the corpus vs the paper.
pub fn stats(ctx: &Context) {
    println!("\n================ §V corpus statistics (ours vs paper) ================");
    let mut table = TextTable::new(["Statistic", "ours", "paper"]);
    let py = CorpusStats::compute(Ecosystem::Python, ctx.corpus.language(Ecosystem::Python));
    let js = CorpusStats::compute(
        Ecosystem::JavaScript,
        ctx.corpus.language(Ecosystem::JavaScript),
    );
    let rust = CorpusStats::compute(Ecosystem::Rust, ctx.corpus.language(Ecosystem::Rust));
    table.row([
        "Python repos with raw metadata only".to_string(),
        format!("{:.0}%", py.raw_only_share * 100.0),
        "93%".to_string(),
    ]);
    table.row([
        "JavaScript repos with raw metadata only".to_string(),
        format!("{:.0}%", js.raw_only_share * 100.0),
        "47%".to_string(),
    ]);
    table.row([
        "Rust repos with raw metadata only".to_string(),
        format!("{:.0}%", rust.raw_only_share * 100.0),
        "56%".to_string(),
    ]);
    table.row([
        "requirements.txt deps with pinned versions".to_string(),
        format!("{:.0}%", py.pinned_requirements_share * 100.0),
        "46%".to_string(),
    ]);
    table.row([
        "package.json deps that are dev dependencies".to_string(),
        format!("{:.0}%", js.dev_dep_share * 100.0),
        "76%".to_string(),
    ]);
    table.row([
        "metadata files per Python repo".to_string(),
        format!("{:.1}", py.avg_metadata_files),
        "5.7".to_string(),
    ]);
    table.row([
        "metadata files per JavaScript repo".to_string(),
        format!("{:.1}", js.avg_metadata_files),
        "12.8".to_string(),
    ]);
    table.row([
        "Python repos using backslash continuations".to_string(),
        format!("{:.1}%", py.backslash_repo_share * 100.0),
        "1.8%".to_string(),
    ]);
    table.row([
        "Python repos using -r includes".to_string(),
        format!("{:.0}%", py.include_repo_share * 100.0),
        "~10% (>50 files)".to_string(),
    ]);

    // §V-C: share of installed Python dependencies that are transitive.
    let registry = ctx.registries.for_ecosystem(Ecosystem::Python);
    let platform = Platform::default();
    let py_repos = ctx.corpus.language(Ecosystem::Python);
    let counts = ctx.phase("stats dry runs", py_repos.len() as u64, || {
        par_map(ctx.jobs(), py_repos, |_, repo| {
            let report = dry_run(registry, &repo.text_files(), "requirements.txt", &platform);
            let transitive = report.installed.iter().filter(|p| p.transitive).count();
            (transitive, report.installed.len())
        })
    });
    let transitive: usize = counts.iter().map(|(t, _)| t).sum();
    let installed: usize = counts.iter().map(|(_, n)| n).sum();
    let share = if installed == 0 {
        0.0
    } else {
        transitive as f64 / installed as f64
    };
    table.row([
        "installed Python deps that are transitive".to_string(),
        format!("{:.0}%", share * 100.0),
        "74%".to_string(),
    ]);
    println!("{table}");
    ctx.write("stats_section_v.csv", &table.to_csv());
}

/// §VII benchmark scores for every generator.
pub fn benchscore(ctx: &Context) {
    println!("\n================ §VII benchmark scores ================");
    let cases = benchx::cases::all_cases();
    let mut table = TextTable::new([
        "Generator",
        "name recall",
        "version accuracy",
        "perfect cases",
    ]);
    let graded: Vec<(String, benchx::BenchmarkScore)> = vec![
        (
            "Trivy".into(),
            benchx::score_generator(&ToolEmulator::trivy(), &cases),
        ),
        (
            "Syft".into(),
            benchx::score_generator(&ToolEmulator::syft(), &cases),
        ),
        (
            "sbom-tool".into(),
            benchx::score_generator(&ToolEmulator::sbom_tool(&ctx.registries, 0.0), &cases),
        ),
        (
            "GitHub DG".into(),
            benchx::score_generator(&ToolEmulator::github_dg(), &cases),
        ),
        (
            "best-practice".into(),
            benchx::score_generator(&BestPracticeGenerator::new(&ctx.registries), &cases),
        ),
    ];
    for (label, score) in &graded {
        table.row([
            label.clone(),
            format!("{:.2}", score.name_recall()),
            format!("{:.2}", score.version_accuracy()),
            format!("{}/{}", score.perfect_cases(), score.cases.len()),
        ]);
    }
    println!("{table}");
    ctx.write("benchscore.csv", &table.to_csv());
}

/// Ablations: toggle each §V root-cause flag and measure how the metric it
/// drives moves. Quantifies what the paper identifies qualitatively.
pub fn ablate(ctx: &Context) {
    println!("\n================ Ablations: §V root causes quantified ================");
    use sbomdiff_generators::{GoVersionStyle, ToolProfile, VersionPolicy};
    let mut table = TextTable::new(["Ablation", "metric", "baseline", "ablated"]);

    // 1. §V-D: Trivy's silent range-dropping — grant it verbatim ranges and
    // watch its Python package counts and agreement with GitHub DG.
    {
        let repos = ctx.corpus.language(Ecosystem::Python);
        let baseline = ToolEmulator::trivy();
        let mut profile = ToolProfile::trivy();
        // Range support is two-layered: the requirements dialect must parse
        // the range (Trivy's ==-keyed grammar drops it first) and the
        // version policy must report it.
        profile.req_style = sbomdiff_metadata::python::ReqStyle::GithubDg;
        profile.version_policy = VersionPolicy::Verbatim;
        let ablated = ToolEmulator::with_profile(profile, None, 0.0);
        let github = ToolEmulator::github_dg();
        let cells = ctx.phase("ablation: ranges", repos.len() as u64, || {
            par_map(ctx.jobs(), repos, |_, repo| {
                let b = baseline.generate(repo);
                let a = ablated.generate(repo);
                let g = github.generate(repo);
                let js = match (
                    jaccard(&key_set(&b), &key_set(&g)),
                    jaccard(&key_set(&a), &key_set(&g)),
                ) {
                    (Some(jb), Some(ja)) => Some((jb, ja)),
                    _ => None,
                };
                (b.len(), a.len(), js)
            })
        });
        let (mut base_n, mut abl_n) = (0usize, 0usize);
        let (mut base_j, mut abl_j, mut nj) = (0.0f64, 0.0f64, 0usize);
        for (b, a, js) in cells {
            base_n += b;
            abl_n += a;
            if let Some((jb, ja)) = js {
                base_j += jb;
                abl_j += ja;
                nj += 1;
            }
        }
        table.row([
            "Trivy reports ranges instead of dropping".to_string(),
            "Python packages found".to_string(),
            base_n.to_string(),
            abl_n.to_string(),
        ]);
        table.row([
            "  (same ablation)".to_string(),
            "mean Jaccard vs GitHub DG".to_string(),
            format!("{:.3}", base_j / nj.max(1) as f64),
            format!("{:.3}", abl_j / nj.max(1) as f64),
        ]);
    }

    // 2. §V-F: Trivy excludes dev dependencies — include them and watch the
    // JavaScript counts.
    {
        let repos = ctx.corpus.language(Ecosystem::JavaScript);
        let baseline = ToolEmulator::trivy();
        let mut profile = ToolProfile::trivy();
        profile.include_dev = true;
        let ablated = ToolEmulator::with_profile(profile, None, 0.0);
        let cells = ctx.phase("ablation: dev deps", repos.len() as u64, || {
            par_map(ctx.jobs(), repos, |_, repo| {
                (baseline.generate(repo).len(), ablated.generate(repo).len())
            })
        });
        let base: usize = cells.iter().map(|(b, _)| b).sum();
        let abl: usize = cells.iter().map(|(_, a)| a).sum();
        table.row([
            "Trivy includes dev dependencies".to_string(),
            "JavaScript packages found".to_string(),
            base.to_string(),
            abl.to_string(),
        ]);
    }

    // 3. §V-E: Go `v` prefix — align Trivy with Syft's spelling and watch
    // their agreement on Go jump.
    {
        let repos = ctx.corpus.language(Ecosystem::Go);
        let syft = ToolEmulator::syft();
        let baseline = ToolEmulator::trivy();
        let mut profile = ToolProfile::trivy();
        profile.go_version = GoVersionStyle::KeepV;
        let ablated = ToolEmulator::with_profile(profile, None, 0.0);
        let cells = ctx.phase("ablation: v prefix", repos.len() as u64, || {
            par_map(ctx.jobs(), repos, |_, repo| {
                let s = syft.generate(repo);
                match (
                    jaccard(&key_set(&baseline.generate(repo)), &key_set(&s)),
                    jaccard(&key_set(&ablated.generate(repo)), &key_set(&s)),
                ) {
                    (Some(jb), Some(ja)) => Some((jb, ja)),
                    _ => None,
                }
            })
        });
        let (mut base_j, mut abl_j, mut n) = (0.0, 0.0, 0usize);
        for (jb, ja) in cells.into_iter().flatten() {
            base_j += jb;
            abl_j += ja;
            n += 1;
        }
        table.row([
            "Trivy keeps Go 'v' prefix (like Syft)".to_string(),
            "mean Jaccard vs Syft on Go".to_string(),
            format!("{:.3}", base_j / n.max(1) as f64),
            format!("{:.3}", abl_j / n.max(1) as f64),
        ]);
    }

    // 4. §V-C: sbom-tool's unreliable resolution — give it a perfect
    // registry and watch Table III recall.
    {
        let repos = ctx.corpus.language(Ecosystem::Python);
        let registry = ctx.registries.for_ecosystem(Ecosystem::Python);
        let platform = Platform::default();
        let score = |failure: f64| -> PrecisionRecall {
            let tool = ToolEmulator::sbom_tool(&ctx.registries, failure);
            let scores = ctx.phase("ablation: registry", repos.len() as u64, || {
                par_map(ctx.jobs(), repos, |_, repo| {
                    let truth: std::collections::BTreeSet<(String, String)> =
                        dry_run(registry, &repo.text_files(), "requirements.txt", &platform)
                            .keys()
                            .collect();
                    let reported: std::collections::BTreeSet<(String, String)> = tool
                        .generate(repo)
                        .components()
                        .iter()
                        .map(|c| {
                            (
                                c.name.to_string(),
                                c.version.as_deref().unwrap_or_default().to_string(),
                            )
                        })
                        .collect();
                    PrecisionRecall::score(&reported, &truth)
                })
            });
            let mut total = PrecisionRecall::default();
            for s in scores {
                total.merge(s);
            }
            total
        };
        let base = score(SBOM_TOOL_FAILURE_RATE);
        let abl = score(0.0);
        table.row([
            "sbom-tool with a reliable registry".to_string(),
            "requirements.txt recall".to_string(),
            format!("{:.2}", base.recall()),
            format!("{:.2}", abl.recall()),
        ]);
    }

    // 5. §V-G: merging duplicates — grant GitHub DG merging and watch the
    // Table I duplicate rate vanish.
    {
        let repos = ctx.corpus.language(Ecosystem::Java);
        let baseline = ToolEmulator::github_dg();
        let mut profile = ToolProfile::github_dg();
        profile.merge_duplicates = true;
        let ablated = ToolEmulator::with_profile(profile, None, 0.0);
        let (base_sboms, abl_sboms) = ctx.phase("ablation: merging", repos.len() as u64, || {
            let pairs = par_map(ctx.jobs(), repos, |_, repo| {
                (baseline.generate(repo), ablated.generate(repo))
            });
            pairs.into_iter().unzip::<_, _, Vec<Sbom>, Vec<Sbom>>()
        });
        table.row([
            "GitHub DG merges duplicate entries".to_string(),
            "Java duplicate rate".to_string(),
            format!("{:.2}%", duplicate_rate(&base_sboms) * 100.0),
            format!("{:.2}%", duplicate_rate(&abl_sboms) * 100.0),
        ]);
    }
    println!("{table}");
    ctx.write("ablations.csv", &table.to_csv());
}

/// The paper's future-work "ranking system": a composite scorecard over
/// benchmark recall, version accuracy, ground-truth accuracy and duplicate
/// hygiene, ranking the generators.
pub fn ranking(ctx: &Context) {
    println!("\n================ Generator ranking (paper §X future work) ================");
    let cases = benchx::cases::all_cases();
    let platform = Platform::default();
    let registry = ctx.registries.for_ecosystem(Ecosystem::Python);
    let py_repos = ctx.corpus.language(Ecosystem::Python);

    struct Entry {
        label: String,
        bench_recall: f64,
        bench_versions: f64,
        gt_f1: f64,
        dup_hygiene: f64,
    }
    let mut entries: Vec<Entry> = Vec::new();
    let generators: Vec<Box<dyn SbomGenerator + '_>> = vec![
        Box::new(ToolEmulator::trivy()),
        Box::new(ToolEmulator::syft()),
        Box::new(ToolEmulator::sbom_tool(
            &ctx.registries,
            SBOM_TOOL_FAILURE_RATE,
        )),
        Box::new(ToolEmulator::github_dg()),
        Box::new(BestPracticeGenerator::new(&ctx.registries)),
    ];
    let sample = &py_repos[..py_repos.len().min(40)];
    for g in &generators {
        let bench = benchx::score_generator(g.as_ref(), &cases);
        let scored = ctx.phase(
            &format!("ranking {}", g.id().label()),
            sample.len() as u64,
            || {
                par_map(ctx.jobs(), sample, |_, repo| {
                    let truth: std::collections::BTreeSet<(String, String)> =
                        dry_run(registry, &repo.text_files(), "requirements.txt", &platform)
                            .keys()
                            .collect();
                    let sbom = g.generate(repo);
                    let reported: std::collections::BTreeSet<(String, String)> = sbom
                        .components()
                        .iter()
                        .map(|c| {
                            (
                                sbomdiff_types::name::normalize(Ecosystem::Python, &c.name),
                                c.version
                                    .as_deref()
                                    .map(|v| {
                                        Version::parse(v)
                                            .map(|p| p.canonical())
                                            .unwrap_or_else(|_| v.to_string())
                                    })
                                    .unwrap_or_default(),
                            )
                        })
                        .collect();
                    (PrecisionRecall::score(&reported, &truth), sbom)
                })
            },
        );
        let mut gt = PrecisionRecall::default();
        let mut sboms = Vec::new();
        for (score, sbom) in scored {
            gt.merge(score);
            sboms.push(sbom);
        }
        entries.push(Entry {
            label: g.id().label().to_string(),
            bench_recall: bench.name_recall(),
            bench_versions: bench.version_accuracy(),
            gt_f1: gt.f1(),
            dup_hygiene: 1.0 - duplicate_rate(&sboms),
        });
    }
    let composite = |e: &Entry| {
        0.35 * e.bench_recall + 0.2 * e.bench_versions + 0.35 * e.gt_f1 + 0.1 * e.dup_hygiene
    };
    entries.sort_by(|a, b| composite(b).total_cmp(&composite(a)));
    let mut table = TextTable::new([
        "Rank",
        "Generator",
        "bench recall",
        "version acc",
        "ground-truth F1",
        "dup hygiene",
        "composite",
    ]);
    for (i, e) in entries.iter().enumerate() {
        table.row([
            (i + 1).to_string(),
            e.label.clone(),
            format!("{:.2}", e.bench_recall),
            format!("{:.2}", e.bench_versions),
            format!("{:.2}", e.gt_f1),
            format!("{:.2}", e.dup_hygiene),
            format!("{:.3}", composite(e)),
        ]);
    }
    println!("{table}");
    println!("(composite = 0.35*bench recall + 0.2*version accuracy + 0.35*ground-truth F1 + 0.1*duplicate hygiene)");
    ctx.write("ranking.csv", &table.to_csv());
}

/// Downstream vulnerability impact: what each tool's SBOM misses and
/// falsely raises against a synthetic advisory database — the paper's §I
/// motivation, quantified.
pub fn vulnimpact(ctx: &Context) {
    println!(
        "\n================ Vulnerability impact of SBOM errors (§I motivation) ================"
    );
    let db = sbomdiff_vuln::AdvisoryDb::generate(&ctx.registries, ctx.config.seed, 0.25);
    println!("synthetic advisory database: {} advisories", db.len());
    let registry = ctx.registries.for_ecosystem(Ecosystem::Python);
    let platform = Platform::default();
    let repos = ctx.corpus.language(Ecosystem::Python);
    let sboms = ctx.sboms(Ecosystem::Python);
    let mut table = TextTable::new([
        "Tool",
        "real vulns",
        "detected",
        "missed",
        "false alarms",
        "miss rate",
        "false-alarm rate",
    ]);
    let mut counts = [ImpactCounts::default(); 4];
    let per_repo = ctx.phase("vuln assessments", repos.len() as u64, || {
        par_map(ctx.jobs(), repos, |idx, repo| {
            // The truth is pip's dry run, so it is Python whatever the
            // SBOM's first component says.
            let truth = dry_run(registry, &repo.text_files(), "requirements.txt", &platform);
            sboms[idx].each_ref().map(|sbom| {
                sbomdiff_vuln::assess_in(&db, Ecosystem::Python, sbom, &truth.installed).counts()
            })
        })
    });
    for repo_counts in per_repo {
        for (acc, c) in counts.iter_mut().zip(repo_counts) {
            *acc += c;
        }
    }
    for (tool, c) in TOOL_ORDER.iter().zip(counts) {
        table.row([
            tool.label().to_string(),
            c.actual.to_string(),
            c.detected.to_string(),
            c.missed.to_string(),
            c.false_alarms.to_string(),
            format!("{:.0}%", c.miss_rate() * 100.0),
            format!("{:.0}%", c.false_alarm_rate() * 100.0),
        ]);
    }
    println!("{table}");
    println!("(SBOM entries without a parseable concrete version cannot match advisories,");
    println!(" so §V-D's dropped and verbatim-range versions surface here as missed CVEs)");
    ctx.write("vulnimpact.csv", &table.to_csv());
}

/// Profile labels of the quality scorecard, in scoring order: the four
/// studied tools (matching [`TOOL_ORDER`]) plus the best-practice design.
pub const QUALITY_PROFILES: [&str; 5] =
    ["trivy", "syft", "sbom-tool", "github-dg", "best-practice"];

/// SBOM quality/completeness scorecard (ROADMAP item 5): every document of
/// every emulator profile plus the best-practice generator is scored
/// against the NTIA-minimum field checklist ([`sbomdiff_quality`]), and
/// the per-check means roll up per `(language, profile)` into
/// `quality_completeness.csv`. Metadata-based emulators cannot populate
/// supplier or timestamp at all and frequently miss concrete versions, so
/// the best-practice profile scores strictly highest on the weighted total
/// — the property the quality integration test pins.
pub fn quality(ctx: &Context) {
    use sbomdiff_quality::{evaluate, QualityCheck};
    println!(
        "\n================ SBOM quality/completeness (NTIA-minimum checklist) ================"
    );
    let best = BestPracticeGenerator::new(&ctx.registries);
    let check_cols = QualityCheck::ALL
        .map(|c| c.label().replace('-', "_"))
        .join(",");
    let mut csv = format!("language,profile,documents,components,{check_cols},total\n");
    let mut table = TextTable::new([
        "Language",
        "Profile",
        "supplier",
        "version",
        "unique-id",
        "timestamp",
        "total",
    ]);
    // [check 0..7, weighted total] per profile, summed over languages.
    let mut grand = [[0.0f64; 8]; 5];
    let mut grand_n = 0usize;
    for eco in Ecosystem::ALL {
        let repos = ctx.corpus.language(eco);
        let sboms = ctx.sboms(eco);
        // Per repository: every profile's per-check scores + weighted
        // total, plus its component count. One work item per repo keeps
        // the fan-out deterministic for any worker count.
        let rows = ctx.phase(
            &format!("quality {eco}"),
            repos.len() as u64 * QUALITY_PROFILES.len() as u64,
            || {
                par_map(ctx.jobs(), repos, |idx, repo| {
                    let mut cells = [[0.0f64; 8]; 5];
                    let mut comps = [0usize; 5];
                    for (i, cell) in cells.iter_mut().enumerate() {
                        let report = if i < 4 {
                            evaluate(&sboms[idx][i])
                        } else {
                            evaluate(&best.generate(repo))
                        };
                        for (j, check) in QualityCheck::ALL.iter().enumerate() {
                            cell[j] = report.check(*check).score();
                        }
                        cell[7] = report.score();
                        comps[i] = report.components as usize;
                    }
                    (cells, comps)
                })
            },
        );
        let n = rows.len().max(1) as f64;
        grand_n += rows.len();
        for (p, profile) in QUALITY_PROFILES.iter().enumerate() {
            let mut means = [0.0f64; 8];
            let mut comps = 0usize;
            for (cells, c) in &rows {
                for (acc, v) in means.iter_mut().zip(cells[p]) {
                    *acc += v;
                }
                comps += c[p];
            }
            for m in &mut means {
                *m /= n;
            }
            for (acc, m) in grand[p].iter_mut().zip(means) {
                *acc += m * rows.len() as f64;
            }
            let mean_cols: Vec<String> = means.iter().map(|m| format!("{m:.2}")).collect();
            csv.push_str(&format!(
                "{},{profile},{},{comps},{}\n",
                eco.label(),
                rows.len(),
                mean_cols.join(",")
            ));
            table.row([
                eco.label().to_string(),
                profile.to_string(),
                format!("{:.1}", means[0]),
                format!("{:.1}", means[2]),
                format!("{:.1}", means[3]),
                format!("{:.1}", means[6]),
                format!("{:.1}", means[7]),
            ]);
        }
    }
    println!("{table}");
    let n = grand_n.max(1) as f64;
    for row in &mut grand {
        for v in row.iter_mut() {
            *v /= n;
        }
    }
    let best_total = grand[4][7];
    let runner_up = grand[..4].iter().map(|r| r[7]).fold(f64::MIN, f64::max);
    println!(
        "corpus-wide weighted totals: {}",
        QUALITY_PROFILES
            .iter()
            .zip(&grand)
            .map(|(p, r)| format!("{p} {:.1}", r[7]))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "best-practice strictly highest: {} ({best_total:.1} vs runner-up {runner_up:.1})",
        if best_total > runner_up { "yes" } else { "NO" }
    );
    println!("(per-component checks score passed/total×100 per document; supplier and");
    println!(" timestamp are the NTIA fields metadata-based generators cannot populate)");
    ctx.write("quality_completeness.csv", &csv);
}

/// Jaccard over advisory-id sets; two empty sets agree perfectly.
fn set_jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Generator divergence in vulnerability space (Benedetti et al., arXiv
/// 2409.06390): per language × tool profile, the advisory set an
/// SBOM-driven scan raises is diffed against ground truth (a best-practice
/// SBOM's install set) and against the other profiles' sets. Advisory
/// lookups route through the [`sbomdiff_vuln::EnrichCache`], the same path
/// batched `/v1/impact` uses.
pub fn vuln(ctx: &Context) {
    println!("\n================ Generator divergence in vulnerability space ================");
    let db = sbomdiff_vuln::AdvisoryDb::generate(&ctx.registries, ctx.config.seed, 0.25);
    println!(
        "synthetic advisory universe: {} advisories (OSV-shaped ranges)",
        db.len()
    );
    let cache = sbomdiff_vuln::EnrichCache::new();
    let best = BestPracticeGenerator::new(&ctx.registries);
    let mut table = TextTable::new([
        "Language",
        "Tool",
        "repos",
        "actual",
        "detected",
        "missed",
        "false alarms",
        "miss rate",
        "fa rate",
        "J(truth)",
        "J(Trivy)",
        "J(Syft)",
        "J(sbom-tool)",
        "J(GitHub DG)",
    ]);
    for eco in Ecosystem::ALL {
        let repos = ctx.corpus.language(eco);
        let sboms = ctx.sboms(eco);
        // Per repo: per-tool [actual, detected, missed, fa] counts, the
        // per-tool Jaccard vs truth, and the 4×4 pairwise raised-set
        // Jaccard matrix.
        let rows = ctx.phase(
            &format!("vuln divergence {eco}"),
            repos.len() as u64,
            || {
                par_map(ctx.jobs(), repos, |idx, repo| {
                    let truth = sbomdiff_vuln::pinned_truth(&best.generate(repo));
                    let mut counts = [ImpactCounts::default(); 4];
                    let mut jaccard_truth = [0.0f64; 4];
                    let mut raised: [BTreeSet<String>; 4] = Default::default();
                    for (i, sbom) in sboms[idx].iter().enumerate() {
                        // Experiments run fault-free, so the cached path cannot
                        // surface an injected error; the fallback keeps a
                        // SBOMDIFF_FAULTS run alive on the uncached path.
                        let r = sbomdiff_vuln::assess_cached(&cache, &db, eco, sbom, &truth)
                            .unwrap_or_else(|_| sbomdiff_vuln::assess_in(&db, eco, sbom, &truth));
                        counts[i] = r.counts();
                        let mut set = r.detected.clone();
                        set.extend(r.false_alarms.iter().cloned());
                        jaccard_truth[i] = set_jaccard(&set, &r.actual);
                        raised[i] = set;
                    }
                    let mut pairwise = [[0.0f64; 4]; 4];
                    for i in 0..4 {
                        for j in 0..4 {
                            pairwise[i][j] = set_jaccard(&raised[i], &raised[j]);
                        }
                    }
                    (counts, jaccard_truth, pairwise)
                })
            },
        );
        let n = rows.len().max(1) as f64;
        let mut totals = [ImpactCounts::default(); 4];
        let mut jt_sums = [0.0f64; 4];
        let mut pw_sums = [[0.0f64; 4]; 4];
        for (counts, jaccard_truth, pairwise) in &rows {
            for i in 0..4 {
                totals[i] += counts[i];
                jt_sums[i] += jaccard_truth[i];
                for j in 0..4 {
                    pw_sums[i][j] += pairwise[i][j];
                }
            }
        }
        for (i, tool) in TOOL_ORDER.iter().enumerate() {
            let c = totals[i];
            let mut row = vec![
                eco.label().to_string(),
                tool.label().to_string(),
                rows.len().to_string(),
                c.actual.to_string(),
                c.detected.to_string(),
                c.missed.to_string(),
                c.false_alarms.to_string(),
                format!("{:.4}", c.miss_rate()),
                format!("{:.4}", c.false_alarm_rate()),
                format!("{:.4}", jt_sums[i] / n),
            ];
            for sum in &pw_sums[i] {
                row.push(format!("{:.4}", sum / n));
            }
            table.row(row);
        }
    }
    println!("{table}");
    println!("(raised = detected + false alarms; J columns are mean per-repo Jaccard of");
    println!(" raised advisory sets — diagonal 1, off-diagonal the profile divergence)");
    ctx.write("vuln_divergence.csv", &table.to_csv());
    eprintln!("enrich cache: {} entries, {}", cache.len(), cache.stats());
}

/// Seed-stability sweep: re-derives the headline findings across several
/// seeds to show they are properties of the modeled behaviors, not of one
/// lucky corpus.
pub fn stability(ctx: &Context) {
    println!("\n================ Seed stability of the headline findings ================");
    let seeds: Vec<u64> = (0..5)
        .map(|i| ctx.config.seed.wrapping_add(i * 101))
        .collect();
    let mut table = TextTable::new([
        "Seed",
        "fig1 winners",
        "tableIII ordering",
        "tableIV cells",
        "fig2 mass<0.5",
    ]);
    for seed in seeds {
        let registries = Registries::generate(seed);
        let corpus = Corpus::build_with_jobs(
            &registries,
            &CorpusConfig {
                repos_per_language: 60,
                seed: seed ^ 0xc0ffee,
            },
            ctx.jobs(),
        );
        let tools = sbomdiff_generators::studied_tools(&registries, SBOM_TOOL_FAILURE_RATE);

        // Fig. 1 winners (eight languages the paper names).
        let totals = |eco: Ecosystem| -> [usize; 4] {
            let per_repo = par_map(ctx.jobs(), corpus.language(eco), |_, repo| {
                let mut t = [0usize; 4];
                for (i, tool) in tools.iter().enumerate() {
                    t[i] = tool.generate(repo).len();
                }
                t
            });
            let mut t = [0usize; 4];
            for row in per_repo {
                for (acc, n) in t.iter_mut().zip(row) {
                    *acc += n;
                }
            }
            t
        };
        let mut fig1_ok = 0;
        let mut fig1_total = 0;
        for (eco, winner) in [
            (Ecosystem::Python, 3),
            (Ecosystem::Php, 3),
            (Ecosystem::Ruby, 3),
            (Ecosystem::Rust, 3),
            (Ecosystem::DotNet, 2),
            (Ecosystem::JavaScript, 1),
        ] {
            fig1_total += 1;
            let t = totals(eco);
            if t[winner] == *t.iter().max().expect("non-empty") {
                fig1_ok += 1;
            }
        }
        for eco in [Ecosystem::Go, Ecosystem::Swift] {
            fig1_total += 1;
            let t = totals(eco);
            // Trivy & sbom-tool jointly lead.
            if t[0].max(t[2]) == *t.iter().max().expect("non-empty") {
                fig1_ok += 1;
            }
        }

        // Table III ordering: sbom-tool > trivy on both metrics; github
        // precision lowest.
        let registry = registries.for_ecosystem(Ecosystem::Python);
        let platform = Platform::default();
        let mut totals3 = [PrecisionRecall::default(); 4];
        let per_repo3 = par_map(ctx.jobs(), corpus.language(Ecosystem::Python), |_, repo| {
            let truth: std::collections::BTreeSet<(String, String)> =
                dry_run(registry, &repo.text_files(), "requirements.txt", &platform)
                    .keys()
                    .collect();
            let mut scores = [PrecisionRecall::default(); 4];
            for (i, tool) in tools.iter().enumerate() {
                let reported: std::collections::BTreeSet<(String, String)> = tool
                    .generate(repo)
                    .components()
                    .iter()
                    .map(|c| {
                        let v = c
                            .version
                            .as_deref()
                            .map(|v| {
                                Version::parse(v)
                                    .map(|p| p.canonical())
                                    .unwrap_or_else(|_| v.to_string())
                            })
                            .unwrap_or_default();
                        (c.name.to_string(), v)
                    })
                    .collect();
                scores[i] = PrecisionRecall::score(&reported, &truth);
            }
            scores
        });
        for scores in per_repo3 {
            for (total, score) in totals3.iter_mut().zip(scores) {
                total.merge(score);
            }
        }
        let t3_ok = totals3[2].precision() > totals3[0].precision()
            && totals3[2].recall() > totals3[0].recall()
            && totals3[3].precision() <= totals3[0].precision();

        // Table IV cell-exactness.
        let t4_ok = attack::evaluate::evaluate_catalog(&registries, true)
            .iter()
            .all(|o| o.matches_expectation);

        // Fig. 2: majority of pairs dissimilar (share below 0.5 over all
        // pairs pooled > 50%).
        let mut below = 0usize;
        let mut total_pairs = 0usize;
        for eco in Ecosystem::ALL {
            let per_repo = par_map(ctx.jobs(), corpus.language(eco), |_, repo| {
                let sboms: Vec<Sbom> = tools.iter().map(|t| t.generate(repo)).collect();
                let (mut b, mut n) = (0usize, 0usize);
                for a in 0..4 {
                    for c in (a + 1)..4 {
                        if let Some(j) = jaccard(&key_set(&sboms[a]), &key_set(&sboms[c])) {
                            n += 1;
                            if j < 0.5 {
                                b += 1;
                            }
                        }
                    }
                }
                (b, n)
            });
            for (b, n) in per_repo {
                below += b;
                total_pairs += n;
            }
        }
        let fig2_share = below as f64 / total_pairs.max(1) as f64;

        table.row([
            seed.to_string(),
            format!("{fig1_ok}/{fig1_total}"),
            if t3_ok { "holds" } else { "DIVERGES" }.to_string(),
            if t4_ok { "exact" } else { "DIVERGES" }.to_string(),
            format!("{:.0}%", fig2_share * 100.0),
        ]);
    }
    println!("{table}");
    ctx.write("stability.csv", &table.to_csv());
}

/// Matching: exact vs tiered Jaccard for the six tool pairs per language.
///
/// Quantifies how much of the cross-tool disagreement Figure 2 reports is
/// *cosmetic* (§V-E naming conventions) by re-diffing every
/// `(repository, tool pair)` cell through the multi-tier matcher.
/// `jaccard_matched ≥ jaccard_exact` holds row by row: the matched pairs
/// are a superset of the exact ones by construction.
pub fn matching(ctx: &Context) {
    println!("\n================ Matching: exact vs tiered Jaccard per tool pair ================");
    let pairs: [(usize, usize, &str); 6] = [
        (3, 1, "GitHub vs Syft"),
        (3, 0, "GitHub vs Trivy"),
        (1, 0, "Syft vs Trivy"),
        (3, 2, "GitHub vs sbom-tool"),
        (0, 2, "Trivy vs sbom-tool"),
        (1, 2, "Syft vs sbom-tool"),
    ];
    let cfg = MatchConfig::default();
    let tier_cols = MatchTier::ALL.map(|t| t.label()).join(",");
    let mut csv = format!("language,pair,repos,jaccard_exact,jaccard_matched,{tier_cols}\n");
    let mut table = TextTable::new([
        "Language",
        "Pair",
        "J(exact)",
        "J(matched)",
        "recovered pairs",
    ]);
    for eco in Ecosystem::ALL {
        let sboms = ctx.sboms(eco);
        // One work item per repository; each scores all six pairs so the
        // LSH index over a side is built once per repo, not once per pair.
        type RepoCell = (Option<f64>, Option<f64>, [usize; MatchTier::COUNT]);
        let per_repo: Vec<[RepoCell; 6]> =
            ctx.phase(&format!("matching {eco}"), sboms.len() as u64 * 6, || {
                par_map(ctx.jobs(), &sboms[..], |_, s| {
                    pairs.map(|(a, b, _)| {
                        let r = match_sboms(&s[a], &s[b], &cfg);
                        (r.jaccard_exact(), r.jaccard_matched(), r.tier_counts())
                    })
                })
            });
        for (p, (_, _, label)) in pairs.iter().enumerate() {
            let mut exact_sum = 0.0;
            let mut matched_sum = 0.0;
            let mut n = 0usize;
            let mut tiers = [0usize; MatchTier::COUNT];
            for cell in per_repo.iter().map(|row| &row[p]) {
                // Both-empty cells carry no signal, matching fig2's filter.
                let (Some(je), Some(jm)) = (cell.0, cell.1) else {
                    continue;
                };
                exact_sum += je;
                matched_sum += jm;
                n += 1;
                for (acc, c) in tiers.iter_mut().zip(cell.2) {
                    *acc += c;
                }
            }
            let exact_mean = if n == 0 { 0.0 } else { exact_sum / n as f64 };
            let matched_mean = if n == 0 { 0.0 } else { matched_sum / n as f64 };
            let recovered: usize = tiers[1..].iter().sum();
            csv.push_str(&format!(
                "{},{},{n},{exact_mean:.4},{matched_mean:.4},{}\n",
                eco.label(),
                label.to_lowercase().replace([' ', '-'], "_"),
                tiers.map(|c| c.to_string()).join(",")
            ));
            table.row([
                eco.label().to_string(),
                label.to_string(),
                format!("{exact_mean:.3}"),
                format!("{matched_mean:.3}"),
                recovered.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!("(recovered pairs = matches made above the exact tier: purl/alias/normalized/fuzzy)");
    ctx.write("matching_pairs.csv", &csv);
}
