//! The paper's §VII best-practice generator.
//!
//! Implements the recommendations the evaluation motivates:
//!
//! * **Package-manager dry run for lockfile generation** — raw metadata is
//!   resolved against the registry (transitives + concrete versions)
//!   instead of being parsed with a custom grammar; existing lockfiles are
//!   used directly.
//! * **PURL and CPE on every component** for consistent naming and
//!   vulnerability-database compatibility.
//! * **Duplicate merging** within a project, and a dependency-scope
//!   annotation (the field §V-F finds missing from SBOM formats).
//! * **NTIA minimum elements on every component and the document**:
//!   supplier, unique IDs, and a creation timestamp (deterministic, so
//!   identical inputs still produce byte-identical documents).

use std::collections::BTreeMap;

use sbomdiff_faultline as fault;
use sbomdiff_metadata::{
    dotnet, golang, java, javascript, php, python, ruby, rust_lang, swift, MetadataKind, Parsed,
    RepoFs,
};
use sbomdiff_registry::Registries;
use sbomdiff_resolver::{dry_run, engine, Platform};
use sbomdiff_types::{Component, Cpe, DepScope, DiagClass, Diagnostic, Ecosystem, Purl, Sbom};

use crate::{SbomGenerator, ToolId};

/// Fixed document-creation timestamp of the reference generator. Real
/// tools stamp the wall clock; the reference design derives document
/// identity from its inputs alone, so the timestamp is a constant —
/// present for NTIA completeness, harmless for reproducibility.
pub const REFERENCE_TIMESTAMP: &str = "2024-06-24T00:00:00Z";

/// The best-practice reference generator.
pub struct BestPracticeGenerator<'r> {
    registries: &'r Registries,
    platform: Platform,
}

impl<'r> BestPracticeGenerator<'r> {
    /// Creates the generator against a (reliable) registry set.
    pub fn new(registries: &'r Registries) -> Self {
        BestPracticeGenerator {
            registries,
            platform: Platform::default(),
        }
    }
}

impl SbomGenerator for BestPracticeGenerator<'_> {
    fn id(&self) -> ToolId {
        ToolId::BestPractice
    }

    fn generate(&self, repo: &RepoFs) -> Sbom {
        // Isolated reference path: walk and parse everything locally (the
        // oracle the shared-scan property tests compare against).
        self.generate_from(repo, &repo.metadata_files(), &|path, kind| {
            std::sync::Arc::new(parse_reference(repo, path, kind))
        })
    }
}

impl BestPracticeGenerator<'_> {
    /// Derives the best-practice SBOM from a shared scan: the walk and the
    /// reference parses come from the [`crate::ScanContext`], shared with
    /// every other generator scanning through it.
    /// Byte-identical to [`generate`](SbomGenerator::generate).
    pub fn generate_with_scan(&self, scan: &crate::ScanContext<'_>) -> Sbom {
        self.generate_from(scan.repo(), scan.files(), &|path, kind| {
            scan.parsed_reference(path, kind)
        })
    }

    fn generate_from(
        &self,
        repo: &RepoFs,
        files: &[(&str, MetadataKind)],
        parse: &dyn Fn(&str, MetadataKind) -> std::sync::Arc<Parsed>,
    ) -> Sbom {
        let mut sbom = Sbom::new(ToolId::BestPractice.label(), ToolId::BestPractice.version())
            .with_subject(repo.name())
            .with_timestamp(REFERENCE_TIMESTAMP);
        // Group metadata files by (directory, ecosystem): one "project".
        let mut projects: BTreeMap<(String, Ecosystem), Vec<(String, MetadataKind)>> =
            BTreeMap::new();
        for &(path, kind) in files {
            let dir = path
                .rsplit_once('/')
                .map(|(d, _)| d)
                .unwrap_or("")
                .to_string();
            projects
                .entry((dir, kind.ecosystem()))
                .or_default()
                .push((path.to_string(), kind));
        }

        let mut seen: std::collections::BTreeSet<(Ecosystem, String, String)> =
            std::collections::BTreeSet::new();
        for ((_dir, eco), files) in projects {
            let has_lockfile = files.iter().any(|(_, k)| k.is_lockfile());
            if has_lockfile {
                for (path, kind) in files.iter().filter(|(_, k)| k.is_lockfile()) {
                    let parsed = parse(path, *kind);
                    sbom.extend_shared_diagnostics(parsed.diags.iter().cloned());
                    for dep in parsed.iter() {
                        let version = dep
                            .pinned_version()
                            .map(|v| v.to_string())
                            .or_else(|| (!dep.req_text.is_empty()).then(|| dep.req_text.clone()));
                        push_component(
                            &mut sbom,
                            &mut seen,
                            eco,
                            dep.name.raw(),
                            version,
                            dep.scope,
                            path,
                        );
                    }
                }
            } else {
                self.resolve_raw_project(repo, eco, &files, &mut sbom, &mut seen, parse);
            }
        }
        sbom
    }

    /// Dry-run resolves a raw-metadata project: direct declarations plus
    /// the transitive closure, all pinned (§VII).
    #[allow(clippy::too_many_arguments)]
    fn resolve_raw_project(
        &self,
        repo: &RepoFs,
        eco: Ecosystem,
        files: &[(String, MetadataKind)],
        sbom: &mut Sbom,
        seen: &mut std::collections::BTreeSet<(Ecosystem, String, String)>,
        parse: &dyn Fn(&str, MetadataKind) -> std::sync::Arc<Parsed>,
    ) {
        let registry = self.registries.for_ecosystem(eco);
        for (path, kind) in files {
            if *kind == MetadataKind::RequirementsTxt {
                // Full pip dry run (follows -r includes, markers, extras).
                let report = dry_run(registry, &repo.text_files(), path, &self.platform);
                for pkg in report.installed {
                    push_component(
                        sbom,
                        seen,
                        eco,
                        &pkg.name,
                        Some(pkg.version.to_string()),
                        DepScope::Runtime,
                        path,
                    );
                }
                continue;
            }
            let declared = parse(path, *kind);
            sbom.extend_shared_diagnostics(declared.diags.iter().cloned());
            let roots: Vec<engine::RootDep> = declared
                .iter()
                .filter(|d| d.source.is_registry())
                .map(|d| engine::RootDep {
                    name: d.name.raw().to_string(),
                    req: d.req.clone(),
                    scope: d.scope,
                    extras: d.extras.clone(),
                })
                .collect();
            let resolution =
                engine::resolve(registry, &roots, engine::DedupPolicy::HighestWins, true);
            for entry in resolution.packages {
                push_component(
                    sbom,
                    seen,
                    eco,
                    &entry.name,
                    Some(entry.version.to_string()),
                    entry.scope,
                    path,
                );
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn push_component(
    sbom: &mut Sbom,
    seen: &mut std::collections::BTreeSet<(Ecosystem, String, String)>,
    eco: Ecosystem,
    name: &str,
    version: Option<String>,
    scope: DepScope,
    path: &str,
) {
    let canonical = sbomdiff_types::name::normalize(eco, name);
    let key = (eco, canonical, version.clone().unwrap_or_default());
    if !seen.insert(key) {
        return; // merged duplicate (§V-G fixed)
    }
    let purl = Purl::for_package(eco, name, version.as_deref());
    let cpe = Cpe::for_package(eco, name, version.as_deref().unwrap_or("*"));
    // Supplier per NTIA: the publishing party. Registry metadata in this
    // synthetic setting only knows the project itself, so the supplier is
    // derived from the PURL type + name — deterministic and non-empty.
    let supplier = format!("{}:{}", purl.ptype(), name);
    sbom.push(
        Component::new(eco, name, version)
            .with_found_in(path)
            .with_scope(scope)
            .with_purl(purl)
            .with_cpe(cpe)
            .with_supplier(supplier),
    );
}

/// Dispatches to the reference (spec-faithful) parser for a file — the
/// grammar family the best-practice generator uses, as opposed to the
/// tool-dialect parsers of `emulator::parse_with_style`. Results are
/// stamped with path and ecosystem, ready for sharing.
pub(crate) fn parse_reference(repo: &RepoFs, path: &str, kind: MetadataKind) -> Parsed {
    // Fault point: the reference parse has no tool dialect to degrade into,
    // so both injected errors and injected corruption fail the file with a
    // typed, marker-carrying diagnostic instead of silently dropping it.
    if let Some(surfaced) = fault::point!(fault::sites::PARSE_REFERENCE, path) {
        let class = match surfaced {
            fault::Surfaced::Error => DiagClass::IoError,
            fault::Surfaced::Corrupt => DiagClass::TruncatedInput,
        };
        return Parsed::fail(Diagnostic::new(
            class,
            surfaced.message(fault::sites::PARSE_REFERENCE),
        ))
        .with_path(path)
        .with_ecosystem(kind.ecosystem());
    }
    let parsed = if kind.is_lockfile() {
        parse_lockfile(repo, path, kind)
    } else {
        parse_raw(repo, path, kind)
    };
    parsed.with_path(path).with_ecosystem(kind.ecosystem())
}

fn parse_lockfile(repo: &RepoFs, path: &str, kind: MetadataKind) -> Parsed {
    let text = || repo.text(path).unwrap_or_default();
    match kind {
        MetadataKind::PoetryLock => python::parse_poetry_lock(text()),
        MetadataKind::PipfileLock => python::parse_pipfile_lock(text()),
        MetadataKind::PackageLockJson => javascript::parse_package_lock(text()),
        MetadataKind::YarnLock => javascript::parse_yarn_lock(text()),
        MetadataKind::PnpmLock => javascript::parse_pnpm_lock(text()),
        MetadataKind::GemfileLock => ruby::parse_gemfile_lock(text()),
        MetadataKind::ComposerLock => php::parse_composer_lock(text()),
        MetadataKind::GradleLockfile => java::parse_gradle_lockfile(text()),
        MetadataKind::GoSum => golang::parse_go_sum(text()),
        MetadataKind::CargoLock => rust_lang::parse_cargo_lock(text()),
        MetadataKind::PackageResolved => swift::parse_package_resolved(text()),
        MetadataKind::PodfileLock => swift::parse_podfile_lock(text()),
        MetadataKind::PackagesLockJson => dotnet::parse_packages_lock_json(text()),
        _ => Parsed::default(),
    }
}

fn parse_raw(repo: &RepoFs, path: &str, kind: MetadataKind) -> Parsed {
    let text = || repo.text(path).unwrap_or_default();
    match kind {
        MetadataKind::SetupPy => python::parse_setup_py(text()),
        MetadataKind::PyprojectToml => python::parse_pyproject_toml(text()),
        MetadataKind::SetupCfg => python::parse_setup_cfg(text()),
        MetadataKind::PackageJson => javascript::parse_package_json(text()),
        MetadataKind::Gemfile => ruby::parse_gemfile(text()),
        MetadataKind::Gemspec => ruby::parse_gemspec(text()),
        MetadataKind::ComposerJson => php::parse_composer_json(text()),
        MetadataKind::PomXml => java::parse_pom_xml(text()),
        MetadataKind::ManifestMf => java::parse_manifest_mf(text()),
        MetadataKind::PomProperties => java::parse_pom_properties(text()),
        MetadataKind::GoMod => golang::parse_go_mod(text()),
        MetadataKind::GoBinary => golang::parse_go_binary(repo.bytes(path).unwrap_or_default()),
        MetadataKind::CargoToml => rust_lang::parse_cargo_toml(text()),
        MetadataKind::RustBinary => {
            rust_lang::parse_rust_binary(repo.bytes(path).unwrap_or_default())
        }
        MetadataKind::PackageSwift => swift::parse_package_swift(text()),
        MetadataKind::Podfile => swift::parse_podfile(text()),
        MetadataKind::Csproj => dotnet::parse_csproj(text()),
        MetadataKind::PackagesConfig => dotnet::parse_packages_config(text()),
        _ => Parsed::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_raw_metadata_with_transitives() {
        let regs = Registries::generate(5);
        let mut repo = RepoFs::new("bp-demo");
        repo.add_text("requirements.txt", "requests>=2.8.1\n");
        let sbom = BestPracticeGenerator::new(&regs).generate(&repo);
        let names: Vec<&str> = sbom.components().iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"requests"));
        assert!(names.contains(&"urllib3")); // transitive, pinned
        for c in sbom.components() {
            assert!(c.purl.is_some(), "every component carries a PURL");
            assert!(c.cpe.is_some(), "every component carries a CPE");
            assert!(c.version.is_some(), "every component is pinned");
            assert!(c.scope.is_some(), "scope annotation present");
            assert!(
                c.supplier.as_deref().is_some_and(|s| !s.is_empty()),
                "supplier present (NTIA minimum)"
            );
        }
        assert_eq!(sbom.meta.timestamp.as_deref(), Some(REFERENCE_TIMESTAMP));
    }

    #[test]
    fn prefers_lockfiles_when_present() {
        let regs = Registries::generate(5);
        let mut repo = RepoFs::new("bp-lock");
        repo.add_text("requirements.txt", "requests>=2.8.1\n");
        repo.add_text(
            "poetry.lock",
            "[[package]]\nname = \"requests\"\nversion = \"2.8.1\"\ncategory = \"main\"\n",
        );
        let sbom = BestPracticeGenerator::new(&regs).generate(&repo);
        let requests: Vec<&Component> = sbom
            .components()
            .iter()
            .filter(|c| c.name == "requests")
            .collect();
        // One merged entry, from the lockfile's pinned 2.8.1.
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].version.as_deref(), Some("2.8.1"));
    }

    #[test]
    fn merges_duplicates_across_files() {
        let regs = Registries::generate(5);
        let mut repo = RepoFs::new("bp-dup");
        repo.add_text("requirements.txt", "numpy==1.19.2\n");
        repo.add_text("requirements-dev.txt", "numpy==1.19.2\n");
        let sbom = BestPracticeGenerator::new(&regs).generate(&repo);
        assert_eq!(sbom.duplicate_entries(), 0);
        assert_eq!(
            sbom.components()
                .iter()
                .filter(|c| c.name == "numpy")
                .count(),
            1
        );
    }

    #[test]
    fn resolves_non_python_raw_metadata() {
        let regs = Registries::generate(5);
        let mut repo = RepoFs::new("bp-js");
        repo.add_text("package.json", r#"{"dependencies": {"express": "^4.0.0"}}"#);
        let sbom = BestPracticeGenerator::new(&regs).generate(&repo);
        let names: Vec<&str> = sbom.components().iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"express"));
        assert!(names.contains(&"debug")); // transitive
        assert!(names.contains(&"ms")); // transitive of transitive
    }
}
