//! Cross-profile differential properties for the shared-scan pipeline.
//!
//! The tentpole invariant: a profile's SBOM derived through a shared
//! [`ScanContext`] (one walk, one parse per file and parser family) is
//! **byte-identical** to the SBOM from its isolated per-profile scan
//! ([`ToolEmulator::scan_isolated`] / `BestPracticeGenerator::generate`,
//! the pre-sharing oracles). Profile quirks must behave as post-parse
//! transforms — sharing the parse may never leak one profile's dialect,
//! version policy, or diagnostics into another's output.
//!
//! Synthetic repositories mix ecosystems (requirements.txt, go.mod,
//! package-lock.json, Cargo.lock, pom.xml), nested directories, unpinned
//! requirements and truncated lockfiles, so the properties cover both the
//! happy path and the diagnostic-emitting paths.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sbomdiff_generators::{
    studied_tools, BestPracticeGenerator, ParseCache, SbomGenerator, ScanContext, ToolEmulator,
};
use sbomdiff_metadata::RepoFs;
use sbomdiff_registry::Registries;
use sbomdiff_sbomfmt::SbomFormat;
use sbomdiff_types::Sbom;

fn version() -> impl Strategy<Value = String> {
    (0u32..40, 0u32..40, 0u32..10).prop_map(|(a, b, c)| format!("{a}.{b}.{c}"))
}

/// A requirements.txt mixing pinned, ranged and unpinned lines (the latter
/// two are what the Table IV version policies disagree about).
fn requirements() -> impl Strategy<Value = (String, String)> {
    prop::collection::vec(
        ("[a-f]{3,8}", version(), 0u8..3).prop_map(|(name, ver, style)| match style {
            0 => format!("{name}=={ver}"),
            1 => format!("{name}>={ver}"),
            _ => name,
        }),
        1..6,
    )
    .prop_map(|lines| ("requirements.txt".to_string(), lines.join("\n") + "\n"))
}

fn gomod() -> impl Strategy<Value = (String, String)> {
    prop::collection::vec(("[a-f]{3,8}", version()), 1..5).prop_map(|deps| {
        let mut text = String::from("module demo\n\n");
        for (name, ver) in deps {
            text.push_str(&format!("require github.com/demo/{name} v{ver}\n"));
        }
        ("go.mod".to_string(), text)
    })
}

fn package_lock() -> impl Strategy<Value = (String, String)> {
    prop::collection::vec(("[a-f]{3,8}", version()), 1..5).prop_map(|deps| {
        let mut text =
            String::from(r#"{"name":"demo","lockfileVersion":3,"packages":{"":{"name":"demo"}"#);
        for (name, ver) in deps {
            text.push_str(&format!(r#","node_modules/{name}":{{"version":"{ver}"}}"#));
        }
        text.push_str("}}");
        ("package-lock.json".to_string(), text)
    })
}

fn cargo_lock() -> impl Strategy<Value = (String, String)> {
    prop::collection::vec(("[a-f]{3,8}", version()), 1..5).prop_map(|deps| {
        let mut text = String::from("version = 3\n");
        for (name, ver) in deps {
            text.push_str(&format!(
                "\n[[package]]\nname = \"{name}\"\nversion = \"{ver}\"\n"
            ));
        }
        ("Cargo.lock".to_string(), text)
    })
}

fn pom() -> impl Strategy<Value = (String, String)> {
    prop::collection::vec(("[a-f]{3,8}", version()), 1..4).prop_map(|deps| {
        let mut text = String::from(
            "<project><groupId>com.demo</groupId><artifactId>app</artifactId><dependencies>",
        );
        for (name, ver) in deps {
            text.push_str(&format!(
                "<dependency><groupId>com.demo</groupId><artifactId>{name}</artifactId><version>{ver}</version></dependency>"
            ));
        }
        text.push_str("</dependencies></project>");
        ("pom.xml".to_string(), text)
    })
}

/// A JSON lockfile truncated mid-document: every profile must surface the
/// same classified diagnostics through the shared scan as in isolation.
fn truncated_lock() -> impl Strategy<Value = (String, String)> {
    (package_lock(), 1usize..60).prop_map(|((path, content), cut)| {
        let cut = cut.min(content.len() - 1).max(1);
        (path, content[..cut].to_string())
    })
}

/// One synthetic repository: 1–4 metadata files of mixed kinds, each in
/// its own directory so paths never collide and the best-practice
/// generator's per-directory grouping is exercised.
fn repo_files() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(
        prop_oneof![
            requirements(),
            gomod(),
            package_lock(),
            cargo_lock(),
            pom(),
            truncated_lock(),
        ],
        1..5,
    )
}

fn build_repo(files: &[(String, String)]) -> RepoFs {
    let mut repo = RepoFs::new("shared-scan-props");
    for (i, (path, content)) in files.iter().enumerate() {
        repo.add_text(format!("m{i}/{path}"), content);
    }
    repo
}

/// Diagnostics per class label: the census the shared scan must preserve.
fn diag_census(sbom: &Sbom) -> BTreeMap<&'static str, usize> {
    let mut census = BTreeMap::new();
    for diag in sbom.diagnostics() {
        *census.entry(diag.class.label()).or_insert(0) += 1;
    }
    census
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every studied profile — including the sbom-tool emulator with its
    /// (deterministically seeded) flaky registry at the paper's failure
    /// rate — produces byte-identical SBOMs through the shared scan and
    /// the isolated oracle, with the per-class diagnostic census intact.
    #[test]
    fn shared_scan_matches_isolated_oracle(files in repo_files()) {
        let regs = Registries::generate(11);
        let repo = build_repo(&files);
        let cache = ParseCache::new();
        let scan = ScanContext::new(&repo, &cache);
        for tool in studied_tools(&regs, 0.18) {
            let shared = tool.generate_with_scan(&scan);
            let isolated = tool.scan_isolated(&repo);
            prop_assert_eq!(&shared, &isolated, "{}: shared != isolated", tool.id());
            for format in [SbomFormat::CycloneDx, SbomFormat::Spdx] {
                prop_assert_eq!(
                    format.serialize(&shared),
                    format.serialize(&isolated),
                    "{}: serialized documents diverge",
                    tool.id()
                );
            }
            prop_assert_eq!(
                diag_census(&shared),
                diag_census(&isolated),
                "{}: diagnostic census diverges",
                tool.id()
            );
        }
        let bp = BestPracticeGenerator::new(&regs);
        let shared = bp.generate_with_scan(&scan);
        let isolated = bp.generate(&repo);
        prop_assert_eq!(&shared, &isolated, "best-practice: shared != isolated");
        prop_assert_eq!(
            SbomFormat::CycloneDx.serialize(&shared),
            SbomFormat::CycloneDx.serialize(&isolated)
        );
        prop_assert_eq!(diag_census(&shared), diag_census(&isolated));
    }

    /// Parse-once: one context parses each file at most once per parser
    /// family and requirements dialect (≤ 4 entries per file), and
    /// replaying every generator against the same context parses nothing.
    #[test]
    fn one_parse_per_file_and_dialect(files in repo_files()) {
        let regs = Registries::generate(11);
        let repo = build_repo(&files);
        let cache = ParseCache::new();
        let scan = ScanContext::new(&repo, &cache);
        let tools = studied_tools(&regs, 0.0);
        for tool in &tools {
            tool.generate_with_scan(&scan);
        }
        BestPracticeGenerator::new(&regs).generate_with_scan(&scan);
        let first_pass = cache.misses();
        prop_assert!(
            first_pass <= scan.files().len() as u64 * 4,
            "{} parses for {} files",
            first_pass,
            scan.files().len()
        );
        for tool in &tools {
            tool.generate_with_scan(&scan);
        }
        BestPracticeGenerator::new(&regs).generate_with_scan(&scan);
        prop_assert_eq!(cache.misses(), first_pass, "replay re-parsed a file");
    }
}

/// Identical parser diagnostics are *shared* across profiles — one
/// `Arc<Diagnostic>` allocation referenced by every SBOM that saw the
/// same parse — while the per-profile `diagnostic_totals` census still
/// counts one occurrence per profile (sharing the allocation must not
/// collapse the counts).
#[test]
fn parser_diagnostics_are_shared_not_duplicated() {
    use sbomdiff_diff::diagnostic_totals;
    use std::sync::Arc;

    let mut repo = RepoFs::new("diag-share");
    // Truncated JSON: every profile that supports package-lock.json gets
    // the same parser diagnostic from the same shared parse.
    repo.add_text("package-lock.json", r#"{"name":"demo","lockfileVersion"#);
    let cache = ParseCache::new();
    let scan = ScanContext::new(&repo, &cache);
    let trivy = ToolEmulator::trivy().generate_with_scan(&scan);
    let syft = ToolEmulator::syft().generate_with_scan(&scan);
    assert_eq!(trivy.diagnostics().len(), 1);
    assert_eq!(syft.diagnostics().len(), 1);
    assert!(
        Arc::ptr_eq(&trivy.diagnostics()[0], &syft.diagnostics()[0]),
        "both profiles must reference the one parser diagnostic allocation"
    );
    // The census is per-profile: the shared allocation counts once for
    // each SBOM carrying it, exactly as two isolated scans would.
    let shared_totals = diagnostic_totals([&trivy, &syft]);
    let isolated_totals = diagnostic_totals([
        &ToolEmulator::trivy().scan_isolated(&repo),
        &ToolEmulator::syft().scan_isolated(&repo),
    ]);
    assert_eq!(shared_totals, isolated_totals);
    assert_eq!(shared_totals.values().sum::<usize>(), 2);
}

/// The Trivy/Syft dialect share is itself differential: Trivy and Syft
/// read the same shared parse, yet GitHub DG (different dialect) still
/// sees its own parse — a wrong dialect collapse would surface here as a
/// cross-profile leak.
#[test]
fn dialect_sharing_never_leaks_across_profiles() {
    let mut repo = RepoFs::new("dialect-leak");
    repo.add_text("requirements.txt", "numpy==1.19.2\nflask>=2.0\nrequests\n");
    let cache = ParseCache::new();
    let scan = ScanContext::new(&repo, &cache);
    let trivy = ToolEmulator::trivy().generate_with_scan(&scan);
    let syft = ToolEmulator::syft().generate_with_scan(&scan);
    let github = ToolEmulator::github_dg().generate_with_scan(&scan);
    assert_eq!(trivy.components(), syft.components(), "shared dialect");
    assert_eq!(trivy, ToolEmulator::trivy().scan_isolated(&repo));
    assert_eq!(github, ToolEmulator::github_dg().scan_isolated(&repo));
}
