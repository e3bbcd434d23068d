//! `sbomdiff` CLI: scan a real directory the way each studied SBOM tool
//! would, emit CycloneDX/SPDX, or diff all tools' views of the same tree —
//! or diff any two externally generated SBOM documents straight from disk.
//!
//! ```text
//! sbomdiff scan <dir> [--tool trivy|syft|sbom-tool|github-dg|best-practice]
//!                     [--format cyclonedx|spdx|spdx-tag-value] [--seed N]
//!                     [--quality]
//! sbomdiff diff <dir> [--seed N] [--jobs N] [--match exact|tiered] [--explain]
//! sbomdiff diff <a.sbom> <b.sbom> [--match exact|tiered] [--explain]
//! ```
//!
//! `diff <dir>` scans the tree with all four studied tools in parallel
//! (`--jobs`, default: available parallelism), sharing one metadata-parse
//! cache; the output is byte-identical for every worker count. `diff` with
//! two file arguments streams both documents through the bounded-memory
//! ingester (CycloneDX 1.4/1.5 JSON, SPDX 2.2/2.3 JSON or tag-value — the
//! sides need not share a format) and prints the differential report.

use sbomdiff::generators::{
    BestPracticeGenerator, ParseCache, SbomGenerator, ScanContext, ToolEmulator,
};
use sbomdiff::metadata::RepoFs;
use sbomdiff::registry::Registries;
use sbomdiff::sbomfmt::{ingest, SbomFormat};

const USAGE: &str = "\
sbomdiff - differential SBOM analysis over a directory tree

USAGE:
    sbomdiff scan <dir> [--tool trivy|syft|sbom-tool|github-dg|best-practice]
                        [--format cyclonedx|spdx|spdx-tag-value] [--seed N]
                        [--quality]
    sbomdiff diff <dir> [--seed N] [--jobs N] [--match exact|tiered] [--explain]
    sbomdiff diff <a.sbom> <b.sbom> [--match exact|tiered] [--explain]
    sbomdiff --help | --version

COMMANDS:
    scan    scan <dir> the way one studied tool would and print its SBOM
    diff    scan <dir> with all four studied tools and report disagreements,
            or — given two file paths — stream-ingest and diff any two
            external SBOM documents (CycloneDX 1.4/1.5 JSON, SPDX 2.2/2.3
            JSON or tag-value)

OPTIONS:
    --tool <NAME>      emulator profile for `scan` (default best-practice)
    --format <FMT>     output format for `scan`: cyclonedx (default), spdx,
                       or spdx-tag-value
    --seed <N>         package-registry world seed (default 42)
    --quality          with `scan`, print an NTIA-minimum quality scorecard
                       for the generated document on stderr (per-check
                       pass/miss counts and the weighted 0-100 total)
    --jobs <N>         worker threads for `diff` (default: SBOMDIFF_JOBS or cores)
    --match <MODE>     component identity for `diff`: exact (default), or
                       tiered — multi-tier matching (PURL, alias table,
                       ecosystem normalization, LSH-gated fuzzy) reporting
                       jaccard_exact vs jaccard_matched side by side
    --explain          with --match=tiered, dump every non-exact match with
                       its tier and score
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    if args.iter().any(|a| a == "--version" || a == "-V") {
        println!("sbomdiff {}", env!("CARGO_PKG_VERSION"));
        return;
    }
    let mut positionals: Vec<String> = Vec::new();
    let mut tool = "best-practice".to_string();
    let mut format = SbomFormat::CycloneDx;
    let mut seed = 42u64;
    let mut jobs = 0usize;
    let mut tiered = false;
    let mut explain = false;
    let mut quality = false;
    let set_match = |mode: &str| match mode {
        "exact" => Ok(false),
        "tiered" => Ok(true),
        other => Err(other.to_string()),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                i += 1;
                jobs = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
            }
            "--explain" => explain = true,
            "--quality" => quality = true,
            "--match" => {
                i += 1;
                let mode = args.get(i).cloned().unwrap_or_default();
                match set_match(&mode) {
                    Ok(t) => tiered = t,
                    Err(bad) => {
                        eprintln!("unknown match mode: {bad} (exact|tiered)");
                        std::process::exit(2);
                    }
                }
            }
            other if other.starts_with("--match=") => match set_match(&other["--match=".len()..]) {
                Ok(t) => tiered = t,
                Err(bad) => {
                    eprintln!("unknown match mode: {bad} (exact|tiered)");
                    std::process::exit(2);
                }
            },
            "--tool" => {
                i += 1;
                tool = args.get(i).cloned().unwrap_or_default();
            }
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("spdx") => SbomFormat::Spdx,
                    Some("spdx-tag-value") => SbomFormat::SpdxTagValue,
                    _ => SbomFormat::CycloneDx,
                };
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(seed);
            }
            other if positionals.len() < 3 && !other.starts_with('-') => {
                positionals.push(other.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // `diff a.sbom b.sbom`: two external documents, no directory scan.
    if positionals.len() == 3 && positionals[0] == "diff" {
        diff_files(&positionals[1], &positionals[2], tiered, explain, jobs);
        return;
    }
    let [command, dir] = positionals.as_slice() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let repo = match RepoFs::from_dir(dir) {
        Ok(repo) => repo,
        Err(e) => {
            eprintln!("error reading {dir}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[sbomdiff] {}: {} metadata file(s) found",
        repo.name(),
        repo.metadata_files().len()
    );
    let registries = Registries::generate(seed);

    match command.as_str() {
        "scan" => {
            let generator: Box<dyn SbomGenerator + '_> = match tool.as_str() {
                "trivy" => Box::new(ToolEmulator::trivy()),
                "syft" => Box::new(ToolEmulator::syft()),
                "sbom-tool" => Box::new(ToolEmulator::sbom_tool(&registries, 0.0)),
                "github-dg" | "github" => Box::new(ToolEmulator::github_dg()),
                "best-practice" => Box::new(BestPracticeGenerator::new(&registries)),
                other => {
                    eprintln!(
                        "unknown tool: {other} (trivy|syft|sbom-tool|github-dg|best-practice)"
                    );
                    std::process::exit(2);
                }
            };
            let sbom = generator.generate(&repo);
            eprintln!(
                "[sbomdiff] {} profile reports {} component(s)",
                generator.id().label(),
                sbom.len()
            );
            // Diagnostics go to stderr so the document on stdout stays a
            // clean SBOM (taxonomy: DESIGN.md §13).
            for diag in sbom.diagnostics() {
                eprintln!("[diag] {diag}");
            }
            if quality {
                // The scorecard joins the diagnostics on stderr so stdout
                // stays a clean, pipeable SBOM document.
                use sbomdiff::diff::TextTable;
                use sbomdiff::quality::{evaluate, QualityCheck};
                let report = evaluate(&sbom);
                let mut table =
                    TextTable::new(["Check", "weight", "passed", "missing", "malformed", "score"]);
                for check in QualityCheck::ALL {
                    let r = report.check(check);
                    table.row([
                        check.label().to_string(),
                        check.weight().to_string(),
                        r.passed.to_string(),
                        r.missing.to_string(),
                        r.malformed.to_string(),
                        format!("{:.1}", r.score()),
                    ]);
                }
                eprint!("{table}");
                eprintln!(
                    "[sbomdiff] quality: {:.1}/100 weighted total over {} component(s)",
                    report.score(),
                    report.components
                );
                for diag in &report.diagnostics {
                    eprintln!("[quality] {diag}");
                }
            }
            println!("{}", format.serialize(&sbom));
        }
        "diff" => {
            use sbomdiff::diff::{jaccard, key_set, TextTable};
            let tools = sbomdiff::generators::studied_tools(&registries, 0.0);
            // One worker per tool, one shared parse of each manifest.
            let jobs = sbomdiff::parallel::Jobs::new(jobs).get();
            let counters = ParseCache::new();
            let scan = ScanContext::new(&repo, &counters);
            let sboms =
                sbomdiff::parallel::par_map(jobs, &tools, |_, t| t.generate_with_scan(&scan));
            let mut counts = TextTable::new(["Tool", "components", "duplicates", "diagnostics"]);
            for (t, s) in tools.iter().zip(&sboms) {
                counts.row([
                    t.id().label().to_string(),
                    s.len().to_string(),
                    s.duplicate_entries().to_string(),
                    s.diagnostics().len().to_string(),
                ]);
            }
            println!("{counts}");
            for (t, s) in tools.iter().zip(&sboms) {
                for diag in s.diagnostics() {
                    println!("{}: {diag}", t.id().label());
                }
            }
            let fmt_j = |j: Option<f64>| j.map(|j| format!("{j:.3}")).unwrap_or_else(|| "-".into());
            if tiered {
                // Exact and tiered similarity side by side, per tool pair
                // (§V-E: the gap is the naming-convention share of drift).
                use sbomdiff::diff::MatchedDiff;
                let cfg = sbomdiff::matching::MatchConfig {
                    jobs,
                    ..sbomdiff::matching::MatchConfig::default()
                };
                let mut pairs =
                    TextTable::new(["Pair", "Jaccard(exact)", "Jaccard(matched)", "recovered"]);
                let mut explains = String::new();
                for a in 0..sboms.len() {
                    for b in (a + 1)..sboms.len() {
                        let label =
                            format!("{} vs {}", tools[a].id().label(), tools[b].id().label());
                        let d = MatchedDiff::compute(&sboms[a], &sboms[b], &cfg);
                        pairs.row([
                            label.clone(),
                            fmt_j(d.jaccard_exact()),
                            fmt_j(d.jaccard_matched()),
                            d.recovered().to_string(),
                        ]);
                        if explain {
                            explains.push_str(&format!("=== {label}\n{}", d.report.explain()));
                        }
                    }
                }
                println!("{pairs}");
                print!("{explains}");
            } else {
                let mut pairs = TextTable::new(["Pair", "Jaccard"]);
                for a in 0..sboms.len() {
                    for b in (a + 1)..sboms.len() {
                        let j = jaccard(&key_set(&sboms[a]), &key_set(&sboms[b]));
                        pairs.row([
                            format!("{} vs {}", tools[a].id().label(), tools[b].id().label()),
                            fmt_j(j),
                        ]);
                    }
                }
                println!("{pairs}");
            }
            // Show the disagreements concretely: keys reported by exactly
            // one tool.
            for (t, s) in tools.iter().zip(&sboms) {
                let mine = key_set(s);
                let others: std::collections::BTreeSet<_> = sboms
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| tools[*i].id() != t.id())
                    .flat_map(|(_, other)| key_set(other))
                    .collect();
                let unique: Vec<_> = mine.difference(&others).take(5).collect();
                if !unique.is_empty() {
                    println!("only {} sees:", t.id().label());
                    for k in unique {
                        println!("  {k}");
                    }
                }
            }
        }
        other => {
            eprintln!("unknown command: {other}");
            std::process::exit(2);
        }
    }
}

/// Diffs two externally generated SBOM documents by streaming each from
/// disk through the bounded-memory ingester. Exits 1 on a fatal
/// ingestion diagnostic; corrupt input is reported, never a panic.
/// With `tiered`, the multi-tier matcher's report is appended to the
/// exact diff (and `explain` dumps every non-exact match).
fn diff_files(a_path: &str, b_path: &str, tiered: bool, explain: bool, jobs: usize) {
    use sbomdiff::diff::{jaccard, key_set, TextTable};

    let mut outcomes = Vec::with_capacity(2);
    for path in [a_path, b_path] {
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                std::process::exit(1);
            }
        };
        let size = file.metadata().map(|m| m.len()).unwrap_or(0);
        let opts = ingest::IngestOptions {
            // Key fault injection by document size, mirroring the service,
            // so chaos plans behave identically against both front ends.
            fault_key: size.to_string(),
            ..ingest::IngestOptions::default()
        };
        let mut last_report = 0usize;
        let outcome = ingest::ingest_reader(file, opts, &mut |stats| {
            // Progress for very large documents, throttled so small ones
            // stay quiet.
            if stats.components >= last_report + 10_000 {
                last_report = stats.components;
                eprintln!(
                    "[sbomdiff] {path}: {} component(s), {} byte(s) so far",
                    stats.components, stats.bytes_read
                );
            }
        });
        for diag in outcome.sbom.diagnostics() {
            eprintln!("[diag] {path}: {diag}");
        }
        if let Some(fatal) = &outcome.fatal {
            eprintln!("[diag] {path}: {fatal}");
            std::process::exit(1);
        }
        eprintln!(
            "[sbomdiff] {path}: {}{} — {} component(s), {} byte(s)",
            outcome.format.map_or("unknown format", |f| f.label()),
            outcome
                .stats
                .spec_version
                .as_deref()
                .map(|v| format!(" {v}"))
                .unwrap_or_default(),
            outcome.stats.components,
            outcome.stats.bytes_read
        );
        outcomes.push(outcome);
    }
    let mut counts = TextTable::new(["Document", "format", "components", "duplicates", "diags"]);
    for (path, o) in [a_path, b_path].iter().zip(&outcomes) {
        counts.row([
            path.to_string(),
            o.format.map_or("unknown", |f| f.label()).to_string(),
            o.sbom.len().to_string(),
            o.sbom.duplicate_entries().to_string(),
            o.sbom.diagnostics().len().to_string(),
        ]);
    }
    println!("{counts}");
    let keys_a = key_set(&outcomes[0].sbom);
    let keys_b = key_set(&outcomes[1].sbom);
    let j = jaccard(&keys_a, &keys_b);
    println!(
        "jaccard: {}",
        j.map(|j| format!("{j:.3}")).unwrap_or_else(|| "-".into())
    );
    println!("intersection: {}", keys_a.intersection(&keys_b).count());
    const KEY_SAMPLE: usize = 20;
    for (label, mine, other) in [
        ("only in a", &keys_a, &keys_b),
        ("only in b", &keys_b, &keys_a),
    ] {
        let only: Vec<_> = mine.difference(other).collect();
        println!("{label}: {}", only.len());
        for k in only.iter().take(KEY_SAMPLE) {
            println!("  {k}");
        }
        if only.len() > KEY_SAMPLE {
            println!("  … and {} more", only.len() - KEY_SAMPLE);
        }
    }
    if tiered {
        let cfg = sbomdiff::matching::MatchConfig {
            jobs: sbomdiff::parallel::Jobs::new(jobs).get(),
            ..sbomdiff::matching::MatchConfig::default()
        };
        let d = sbomdiff::diff::MatchedDiff::compute(&outcomes[0].sbom, &outcomes[1].sbom, &cfg);
        let fmt_j = |j: Option<f64>| j.map(|j| format!("{j:.3}")).unwrap_or_else(|| "-".into());
        println!("jaccard_exact: {}", fmt_j(d.jaccard_exact()));
        println!("jaccard_matched: {}", fmt_j(d.jaccard_matched()));
        let breakdown = d
            .tier_breakdown()
            .iter()
            .map(|(label, n)| format!("{label}={n}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("tiers: {breakdown}");
        if explain {
            print!("{}", d.report.explain());
        }
    }
}
