//! The generic tool emulator: walks a repository, parses each supported
//! metadata file with the profile's dialect, and applies the profile's
//! version, scope, naming and resolution policies.
//!
//! Faithful to §V-G, each metadata file is analyzed independently and
//! results are never merged — which is exactly what produces the duplicate
//! entries of Table I.

use sbomdiff_faultline as fault;
use sbomdiff_metadata::{
    dotnet, golang, java, javascript, php, python, ruby, rust_lang, swift, MetadataKind, Parsed,
    RepoFs,
};
use sbomdiff_registry::{FlakyRegistry, Registries};
use sbomdiff_types::{
    fnv1a, Component, DeclaredDependency, DepScope, DiagClass, Diagnostic, Ecosystem, Purl, Sbom,
    Symbol, Version,
};

use crate::profile::{GoVersionStyle, JavaNaming, SubspecNaming, ToolProfile, VersionPolicy};
use crate::{SbomGenerator, ToolId};

/// Emulates one studied tool.
///
/// # Examples
///
/// ```
/// use sbomdiff_generators::{SbomGenerator, ToolEmulator};
/// use sbomdiff_metadata::RepoFs;
///
/// let mut repo = RepoFs::new("demo");
/// repo.add_text("requirements.txt", "numpy==1.19.2\nflask>=2.0\n");
/// // Trivy silently drops the unpinned flask (§V-D).
/// let sbom = ToolEmulator::trivy().generate(&repo);
/// assert_eq!(sbom.len(), 1);
/// assert_eq!(sbom.components()[0].name, "numpy");
/// ```
pub struct ToolEmulator<'r> {
    profile: ToolProfile,
    registry: Option<RegistryHandle<'r>>,
}

struct RegistryHandle<'r> {
    registries: &'r Registries,
    failure_rate: f64,
}

impl<'r> ToolEmulator<'r> {
    /// Trivy 0.43.0 emulator (offline).
    pub fn trivy() -> Self {
        ToolEmulator {
            profile: ToolProfile::trivy(),
            registry: None,
        }
    }

    /// Syft 0.84.1 emulator (offline).
    pub fn syft() -> Self {
        ToolEmulator {
            profile: ToolProfile::syft(),
            registry: None,
        }
    }

    /// Microsoft SBOM Tool 1.1.6 emulator. Contacts `registries` to
    /// validate names, pin latest-in-range versions and resolve transitive
    /// dependencies; `failure_rate` models the unreliable resolution §V-C
    /// describes (0.0 = perfectly reliable, for ablations).
    pub fn sbom_tool(registries: &'r Registries, failure_rate: f64) -> Self {
        ToolEmulator {
            profile: ToolProfile::sbom_tool(),
            registry: Some(RegistryHandle {
                registries,
                failure_rate,
            }),
        }
    }

    /// GitHub Dependency Graph emulator (offline).
    pub fn github_dg() -> Self {
        ToolEmulator {
            profile: ToolProfile::github_dg(),
            registry: None,
        }
    }

    /// Builds an emulator with a custom profile (ablation support). The
    /// registry is required when the profile resolves versions or
    /// transitives; `failure_rate` applies to its queries.
    pub fn with_profile(
        profile: ToolProfile,
        registries: Option<&'r Registries>,
        failure_rate: f64,
    ) -> Self {
        ToolEmulator {
            profile,
            registry: registries.map(|registries| RegistryHandle {
                registries,
                failure_rate,
            }),
        }
    }

    /// The profile in effect.
    pub fn profile(&self) -> &ToolProfile {
        &self.profile
    }

    fn client_for(&self, eco: Ecosystem, repo: &RepoFs) -> Option<FlakyRegistry<'_>> {
        self.registry.as_ref().map(|h| {
            let seed = fnv1a(repo.name().as_bytes()) ^ fnv1a(self.profile.id.label().as_bytes());
            FlakyRegistry::new(h.registries.for_ecosystem(eco), h.failure_rate, seed)
        })
    }
}

impl SbomGenerator for ToolEmulator<'_> {
    fn id(&self) -> ToolId {
        self.profile.id
    }

    fn generate(&self, repo: &RepoFs) -> Sbom {
        self.scan_isolated(repo)
    }
}

impl ToolEmulator<'_> {
    /// Derives this profile's SBOM from a shared scan: the file walk and
    /// every parse are shared with the other profiles scanning through the
    /// same [`crate::ScanContext`]; only this profile's quirks (support
    /// matrix, dialect selection, version/naming policies) are applied on
    /// top, as transforms. Byte-identical to
    /// [`scan_isolated`](ToolEmulator::scan_isolated).
    pub fn generate_with_scan(&self, scan: &crate::ScanContext<'_>) -> Sbom {
        self.generate_from(scan.repo(), scan.files(), &|path, kind| {
            scan.parsed(path, kind, self.profile.req_style)
        })
    }

    /// The pre-sharing reference path: walks and parses everything itself,
    /// sharing nothing. This is the oracle the shared-scan property tests
    /// compare [`generate_with_scan`](ToolEmulator::generate_with_scan)
    /// against, and what [`generate`](SbomGenerator::generate) runs.
    pub fn scan_isolated(&self, repo: &RepoFs) -> Sbom {
        self.generate_from(repo, &repo.metadata_files(), &|path, kind| {
            std::sync::Arc::new(parse_with_style(repo, path, kind, self.profile.req_style))
        })
    }

    /// The profile scan over an already-walked file list, with parsing
    /// delegated to `parse` (shared or isolated).
    fn generate_from(
        &self,
        repo: &RepoFs,
        files: &[(&str, MetadataKind)],
        parse: &dyn Fn(&str, MetadataKind) -> std::sync::Arc<Parsed>,
    ) -> Sbom {
        let mut sbom =
            Sbom::new(self.profile.id.label(), self.profile.id.version()).with_subject(repo.name());
        for &(path, kind) in files {
            if !self.profile.support.supports(kind) {
                continue;
            }
            if kind == MetadataKind::RequirementsTxt
                && self.profile.requirements_exact_name_only
                && path.rsplit('/').next() != Some("requirements.txt")
            {
                continue;
            }
            if kind == MetadataKind::GoMod && self.profile.prefer_gosum_over_gomod {
                let sibling = match path.rsplit_once('/') {
                    Some((dir, _)) => format!("{dir}/go.sum"),
                    None => "go.sum".to_string(),
                };
                if repo.bytes(&sibling).is_some() {
                    continue; // go.sum carries the richer module list
                }
            }
            let deps = parse(path, kind);
            sbom.extend_shared_diagnostics(deps.diags.iter().cloned());
            let eco = kind.ecosystem();
            // One pool round trip per file, not per component.
            let path_sym: Symbol = path.into();
            let client = self.client_for(eco, repo);
            let mut emitted: Vec<(String, Version)> = Vec::new();
            for dep in deps.iter() {
                if !dep.source.is_registry() {
                    // Table IV: exotic sources yield nothing.
                    sbom.push_diagnostic(
                        Diagnostic::new(
                            DiagClass::ExoticSource,
                            format!("URL/path/VCS dependency {} yields no entry", dep.name.raw()),
                        )
                        .with_path(path)
                        .with_ecosystem(eco),
                    );
                    continue;
                }
                if dep.scope == DepScope::Dev && !self.profile.include_dev {
                    continue; // configured policy (§V-F), not data loss
                }
                let Some(component) = self.render(dep, kind, &path_sym, client.as_ref()) else {
                    let diag = match self.profile.version_policy {
                        VersionPolicy::ResolveLatest => Diagnostic::new(
                            DiagClass::RegistryFailure,
                            format!(
                                "registry validation/resolution for {} failed; entry dropped",
                                dep.name.raw()
                            ),
                        ),
                        _ => Diagnostic::new(
                            DiagClass::UnpinnedDropped,
                            format!("unpinned declaration {} silently dropped", dep.name.raw()),
                        ),
                    };
                    sbom.push_diagnostic(diag.with_path(path).with_ecosystem(eco));
                    continue;
                };
                // Track concrete versions for transitive expansion.
                if self.profile.resolve_transitive && !kind.is_lockfile() {
                    if let Some(v) = component
                        .version
                        .as_deref()
                        .and_then(|v| Version::parse(v).ok())
                    {
                        emitted.push((dep.name.raw().to_string(), v));
                    }
                }
                sbom.push(component);
            }
            if self.profile.resolve_transitive && !kind.is_lockfile() {
                if let Some(client) = &client {
                    self.expand_transitives(&mut sbom, emitted, eco, &path_sym, client);
                }
            }
        }
        if self.profile.merge_duplicates {
            sbom = merge(sbom);
        }
        sbom
    }
}

impl ToolEmulator<'_> {
    /// Applies version policy and naming conventions; `None` drops the
    /// entry (§V-D silent discards).
    fn render(
        &self,
        dep: &DeclaredDependency,
        kind: MetadataKind,
        path: &Symbol,
        client: Option<&FlakyRegistry<'_>>,
    ) -> Option<Component> {
        let eco = kind.ecosystem();
        let pinned = dep.pinned_version().cloned();
        let lockfile_like =
            kind.is_lockfile() || matches!(kind, MetadataKind::GoBinary | MetadataKind::RustBinary);
        let mut canonicalized = false;
        let version: Option<String> = if lockfile_like {
            // Lockfile entries are trusted as-is, no registry round trips.
            match &pinned {
                Some(v) => Some(self.render_version(eco, v)),
                None if dep.req_text.is_empty() => None,
                None => Some(dep.req_text.clone()),
            }
        } else {
            match self.profile.version_policy {
                VersionPolicy::DropUnpinned => Some(self.render_version(eco, &pinned?)),
                VersionPolicy::Verbatim => match &pinned {
                    Some(v) if is_tight_pin(&dep.req_text) => Some(self.render_version(eco, v)),
                    _ if !dep.req_text.is_empty() => Some(dep.req_text.clone()),
                    _ => None,
                },
                VersionPolicy::ResolveLatest => {
                    let client = client?;
                    // Name validation against the registry (§VIII); any
                    // failure silently drops the entry.
                    let resolved: &Version = match (&pinned, &dep.req) {
                        (Some(v), _) => {
                            client.validate(dep.name.raw())?;
                            v
                        }
                        (None, Some(req)) => client.latest_matching_ref(dep.name.raw(), req)?,
                        (None, None) => client.latest_ref(dep.name.raw())?,
                    };
                    canonicalized = true;
                    Some(self.render_version(eco, resolved))
                }
            }
        };
        // A registry round trip returns the canonical package name, so
        // the declared spelling is replaced by it (sbom-tool behavior).
        let canonical;
        let raw_name = if canonicalized {
            canonical = sbomdiff_types::name::normalized(eco, dep.name.raw());
            canonical.as_ref()
        } else {
            dep.name.raw()
        };
        let name: Symbol = self.render_name(eco, raw_name).as_ref().into();
        let version: Option<Symbol> = version.map(Symbol::from);
        let purl = Purl::for_component(eco, &name, version.as_ref());
        Some(
            Component::interned(eco, name, version)
                .with_found_in(path.clone())
                .with_purl(purl),
        )
    }

    fn render_version(&self, eco: Ecosystem, v: &Version) -> String {
        if eco == Ecosystem::Go {
            match self.profile.go_version {
                GoVersionStyle::KeepV => v.to_v_prefixed(),
                GoVersionStyle::StripV => v.to_unprefixed(),
            }
        } else {
            v.to_string()
        }
    }

    /// Borrows from `raw` whenever the profile's convention keeps the
    /// spelling (the common case — only Java dot-joining reallocates).
    fn render_name<'n>(&self, eco: Ecosystem, raw: &'n str) -> std::borrow::Cow<'n, str> {
        use std::borrow::Cow;
        match eco {
            Ecosystem::Java => match raw.split_once(':') {
                Some((group, artifact)) => match self.profile.java_naming {
                    JavaNaming::ArtifactOnly => Cow::Borrowed(artifact),
                    JavaNaming::GroupColonArtifact => Cow::Borrowed(raw),
                    JavaNaming::GroupDotArtifact => Cow::Owned(format!("{group}.{artifact}")),
                },
                None => Cow::Borrowed(raw),
            },
            Ecosystem::Swift => match self.profile.subspec {
                SubspecNaming::Subspec => Cow::Borrowed(raw),
                SubspecNaming::MainPod => Cow::Borrowed(raw.split('/').next().unwrap_or(raw)),
            },
            _ => Cow::Borrowed(raw),
        }
    }

    /// Expands transitive dependencies of the concrete packages emitted
    /// from one raw metadata file (sbom-tool only, §V-C). Markers are NOT
    /// honored (§V-H), and every registry query may fail.
    fn expand_transitives(
        &self,
        sbom: &mut Sbom,
        roots: Vec<(String, Version)>,
        eco: Ecosystem,
        path: &Symbol,
        client: &FlakyRegistry<'_>,
    ) {
        // Deduplicated by package name, as NuGet/pip-style resolvers do —
        // one resolved version per package within a file's resolution.
        let mut visited: std::collections::BTreeSet<String> =
            roots.iter().map(|(n, _)| n.clone()).collect();
        let mut queue: std::collections::VecDeque<(String, Version)> = roots.into();
        let mut guard = 0;
        while let Some((name, version)) = queue.pop_front() {
            guard += 1;
            if guard > 10_000 {
                break;
            }
            let Some(edges) = client.deps_of_ref(&name, &version, &[], false) else {
                // "often fails to retrieve" — §V-C
                sbom.push_diagnostic(
                    Diagnostic::new(
                        DiagClass::RegistryFailure,
                        format!("transitive dependency query for {name}@{version} failed"),
                    )
                    .with_path(path)
                    .with_ecosystem(eco),
                );
                continue;
            };
            for edge in edges {
                // NB: the query must stay ahead of the visited check — the
                // flaky registry's failure sequence is a function of query
                // order, and real resolvers re-query duplicate edges too.
                let Some(resolved) = client.follow_ref(edge) else {
                    sbom.push_diagnostic(
                        Diagnostic::new(
                            DiagClass::RegistryFailure,
                            format!("transitive resolution for {} failed", edge.name),
                        )
                        .with_path(path)
                        .with_ecosystem(eco),
                    );
                    continue;
                };
                if !visited.insert(edge.name.clone()) {
                    continue;
                }
                let canonical = sbomdiff_types::name::normalized(eco, &edge.name);
                let rendered: Symbol = self.render_name(eco, canonical.as_ref()).as_ref().into();
                let version_sym: Symbol = self.render_version(eco, resolved).into();
                let purl = Purl::for_component(eco, &rendered, Some(&version_sym));
                sbom.push(
                    Component::interned(eco, rendered, Some(version_sym))
                        .with_found_in(path)
                        .with_purl(purl),
                );
                queue.push_back((edge.name.clone(), resolved.clone()));
            }
        }
    }
}

/// Whether a requirement text is a tight pin GitHub DG normalizes to a bare
/// version (`==1.2.3` with no spaces, or an exact version literal).
fn is_tight_pin(req_text: &str) -> bool {
    if let Some(v) = req_text.strip_prefix("==") {
        return !v.is_empty() && !v.contains(char::is_whitespace) && !v.contains('*');
    }
    // Exact literal pins (package.json "1.2.3", Maven soft pins).
    !req_text.is_empty()
        && req_text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '+'))
        && req_text.starts_with(|c: char| c.is_ascii_digit() || c == 'v')
}

/// Merges duplicate (name, version) entries (best practice §VII; kept here
/// so ablations can grant it to any profile).
fn merge(sbom: Sbom) -> Sbom {
    let mut out = Sbom::new(sbom.meta.tool_name.clone(), sbom.meta.tool_version.clone())
        .with_subject(sbom.meta.subject.clone());
    out.extend_shared_diagnostics(sbom.diagnostics().iter().cloned());
    let mut seen = std::collections::BTreeSet::new();
    for c in sbom.components() {
        let key = (c.name.clone(), c.version.clone());
        if seen.insert(key) {
            out.push(c.clone());
        }
    }
    out
}

/// Dispatches to the right parser for a file, honoring the requirements
/// dialect (the only profile-dependent parser input — which is why
/// [`crate::ScanContext`] shares one parse of every other kind among all
/// profiles).
pub(crate) fn parse_with_style(
    repo: &RepoFs,
    path: &str,
    kind: MetadataKind,
    style: python::ReqStyle,
) -> Parsed {
    let is_binary = matches!(kind, MetadataKind::GoBinary | MetadataKind::RustBinary);
    // Fault point: an injected error fails the whole file read (IoError);
    // injected corruption truncates the text mid-file so the parser sees a
    // damaged-but-parseable document, flagged with a TruncatedInput
    // diagnostic. Binary formats have no safe partial read, so corruption
    // degrades to the error path there.
    let injected = fault::point!(fault::sites::PARSE_FILE, path);
    let corrupted = injected == Some(fault::Surfaced::Corrupt) && !is_binary;
    if let Some(surfaced) = injected {
        if !corrupted {
            return Parsed::fail(Diagnostic::new(
                DiagClass::IoError,
                surfaced.message(fault::sites::PARSE_FILE),
            ))
            .with_path(path)
            .with_ecosystem(kind.ecosystem());
        }
    }
    if !is_binary && repo.text(path).is_none() && repo.bytes(path).is_some() {
        // The file exists but is not valid UTF-8 — every text parser would
        // otherwise see an empty document and silently succeed.
        return Parsed::fail(Diagnostic::new(
            DiagClass::EncodingError,
            "metadata file is not valid UTF-8",
        ))
        .with_path(path)
        .with_ecosystem(kind.ecosystem());
    }
    let text = || {
        let t = repo.text(path).unwrap_or_default();
        if corrupted {
            truncate_for_fault(t)
        } else {
            t
        }
    };
    let parsed = match kind {
        MetadataKind::RequirementsTxt => python::parse_requirements(text(), style),
        MetadataKind::PoetryLock => python::parse_poetry_lock(text()),
        MetadataKind::PipfileLock => python::parse_pipfile_lock(text()),
        MetadataKind::SetupPy => python::parse_setup_py(text()),
        MetadataKind::PyprojectToml => python::parse_pyproject_toml(text()),
        MetadataKind::SetupCfg => python::parse_setup_cfg(text()),
        MetadataKind::PackageJson => javascript::parse_package_json(text()),
        MetadataKind::PackageLockJson => javascript::parse_package_lock(text()),
        MetadataKind::YarnLock => javascript::parse_yarn_lock(text()),
        MetadataKind::PnpmLock => javascript::parse_pnpm_lock(text()),
        MetadataKind::Gemfile => ruby::parse_gemfile(text()),
        MetadataKind::GemfileLock => ruby::parse_gemfile_lock(text()),
        MetadataKind::Gemspec => ruby::parse_gemspec(text()),
        MetadataKind::ComposerJson => php::parse_composer_json(text()),
        MetadataKind::ComposerLock => php::parse_composer_lock(text()),
        MetadataKind::PomXml => java::parse_pom_xml(text()),
        MetadataKind::GradleLockfile => java::parse_gradle_lockfile(text()),
        MetadataKind::ManifestMf => java::parse_manifest_mf(text()),
        MetadataKind::PomProperties => java::parse_pom_properties(text()),
        MetadataKind::GoMod => golang::parse_go_mod(text()),
        MetadataKind::GoSum => golang::parse_go_sum(text()),
        MetadataKind::GoBinary => golang::parse_go_binary(repo.bytes(path).unwrap_or_default()),
        MetadataKind::CargoToml => rust_lang::parse_cargo_toml(text()),
        MetadataKind::CargoLock => rust_lang::parse_cargo_lock(text()),
        MetadataKind::RustBinary => {
            rust_lang::parse_rust_binary(repo.bytes(path).unwrap_or_default())
        }
        MetadataKind::PackageSwift => swift::parse_package_swift(text()),
        MetadataKind::PackageResolved => swift::parse_package_resolved(text()),
        MetadataKind::Podfile => swift::parse_podfile(text()),
        MetadataKind::PodfileLock => swift::parse_podfile_lock(text()),
        MetadataKind::Csproj => dotnet::parse_csproj(text()),
        MetadataKind::PackagesConfig => dotnet::parse_packages_config(text()),
        MetadataKind::PackagesLockJson => dotnet::parse_packages_lock_json(text()),
    };
    let mut parsed = parsed.with_path(path).with_ecosystem(kind.ecosystem());
    if corrupted {
        parsed.push_diag(
            Diagnostic::new(
                DiagClass::TruncatedInput,
                fault::Surfaced::Corrupt.message(fault::sites::PARSE_FILE),
            )
            .with_path(path)
            .with_ecosystem(kind.ecosystem()),
        );
    }
    parsed
}

/// Cuts a document roughly in half on a char boundary, modeling a
/// truncated read under injected corruption.
fn truncate_for_fault(text: &str) -> &str {
    let mut cut = text.len() / 2;
    while cut > 0 && !text.is_char_boundary(cut) {
        cut -= 1;
    }
    &text[..cut]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regs() -> Registries {
        Registries::generate(99)
    }

    fn python_repo() -> RepoFs {
        let mut repo = RepoFs::new("py-demo");
        repo.add_text(
            "requirements.txt",
            "numpy==1.19.2\nrequests>=2.8.1\nflask\n",
        );
        repo
    }

    #[test]
    fn trivy_reports_only_pinned() {
        let repo = python_repo();
        let sbom = ToolEmulator::trivy().generate(&repo);
        assert_eq!(sbom.len(), 1);
        assert_eq!(sbom.components()[0].name, "numpy");
        assert_eq!(sbom.components()[0].version.as_deref(), Some("1.19.2"));
    }

    #[test]
    fn github_reports_ranges_verbatim() {
        let repo = python_repo();
        let sbom = ToolEmulator::github_dg().generate(&repo);
        assert_eq!(sbom.len(), 3);
        let requests = sbom
            .components()
            .iter()
            .find(|c| c.name == "requests")
            .unwrap();
        assert_eq!(requests.version.as_deref(), Some(">=2.8.1"));
        let flask = sbom
            .components()
            .iter()
            .find(|c| c.name == "flask")
            .unwrap();
        assert_eq!(flask.version, None);
    }

    #[test]
    fn sbom_tool_pins_latest_and_expands_transitives() {
        let regs = regs();
        let repo = python_repo();
        let sbom = ToolEmulator::sbom_tool(&regs, 0.0).generate(&repo);
        let requests = sbom
            .components()
            .iter()
            .find(|c| c.name == "requests")
            .unwrap();
        // Latest in range >=2.8.1 is the curated 2.31.0.
        assert_eq!(requests.version.as_deref(), Some("2.31.0"));
        // Transitives of requests pulled from the registry.
        assert!(sbom.components().iter().any(|c| c.name == "urllib3"));
        // flask resolves to the curated latest and expands.
        assert!(sbom.components().iter().any(|c| c.name == "werkzeug"));
    }

    #[test]
    fn sbom_tool_flakiness_loses_packages() {
        let regs = regs();
        let repo = python_repo();
        let reliable = ToolEmulator::sbom_tool(&regs, 0.0).generate(&repo);
        let flaky = ToolEmulator::sbom_tool(&regs, 0.95).generate(&repo);
        assert!(flaky.len() < reliable.len());
    }

    #[test]
    fn table_iv_numpy_continuation_row() {
        // The attack sample: sbom-tool reports numpy pinned to the
        // registry's latest (1.25.2); the other three report nothing.
        let regs = regs();
        let mut repo = RepoFs::new("attack");
        repo.add_text("requirements.txt", "numpy \\\n==\\\n1.19.2\n");
        let trivy = ToolEmulator::trivy().generate(&repo);
        let syft = ToolEmulator::syft().generate(&repo);
        let github = ToolEmulator::github_dg().generate(&repo);
        let sbom_tool = ToolEmulator::sbom_tool(&regs, 0.0).generate(&repo);
        assert!(trivy.is_empty());
        assert!(syft.is_empty());
        assert!(github.is_empty());
        assert_eq!(sbom_tool.len(), 1);
        assert_eq!(sbom_tool.components()[0].name, "numpy");
        assert_eq!(sbom_tool.components()[0].version.as_deref(), Some("1.25.2"));
    }

    #[test]
    fn dev_dependency_policies() {
        let mut repo = RepoFs::new("js-demo");
        repo.add_text(
            "package-lock.json",
            r#"{"lockfileVersion": 3, "packages": {
                "node_modules/lodash": {"version": "4.17.21"},
                "node_modules/jest": {"version": "29.6.2", "dev": true}
            }}"#,
        );
        let trivy = ToolEmulator::trivy().generate(&repo);
        assert_eq!(trivy.len(), 1); // prod only (§V-F)
        let syft = ToolEmulator::syft().generate(&repo);
        assert_eq!(syft.len(), 2); // dev included
    }

    #[test]
    fn java_naming_conventions_diverge() {
        let mut repo = RepoFs::new("java-demo");
        repo.add_text(
            "gradle.lockfile",
            "com.google.guava:guava:32.1.2=runtimeClasspath\n",
        );
        let regs = regs();
        let trivy = ToolEmulator::trivy().generate(&repo);
        let syft = ToolEmulator::syft().generate(&repo);
        let sbom_tool = ToolEmulator::sbom_tool(&regs, 0.0).generate(&repo);
        assert_eq!(trivy.components()[0].name, "com.google.guava:guava");
        assert_eq!(syft.components()[0].name, "guava");
        assert_eq!(sbom_tool.components()[0].name, "com.google.guava.guava");
    }

    #[test]
    fn go_v_prefix_conventions_diverge() {
        let mut repo = RepoFs::new("go-demo");
        repo.add_text("go.mod", "module m\nrequire github.com/pkg/errors v0.9.1\n");
        let trivy = ToolEmulator::trivy().generate(&repo);
        let syft = ToolEmulator::syft().generate(&repo);
        assert_eq!(trivy.components()[0].version.as_deref(), Some("0.9.1"));
        assert_eq!(syft.components()[0].version.as_deref(), Some("v0.9.1"));
    }

    #[test]
    fn subspec_naming_diverges() {
        let mut repo = RepoFs::new("swift-demo");
        repo.add_text(
            "Podfile.lock",
            "PODS:\n  - Firebase/Auth (10.12.0)\n\nDEPENDENCIES:\n  - Firebase/Auth (~> 10.0)\n",
        );
        let regs = regs();
        let trivy = ToolEmulator::trivy().generate(&repo);
        let sbom_tool = ToolEmulator::sbom_tool(&regs, 0.0).generate(&repo);
        assert_eq!(trivy.components()[0].name, "Firebase/Auth");
        assert_eq!(sbom_tool.components()[0].name, "Firebase");
    }

    #[test]
    fn unsupported_files_are_ignored() {
        let mut repo = RepoFs::new("rust-demo");
        repo.add_text("Cargo.toml", "[dependencies]\nserde = \"1.0\"\n");
        // Trivy does not support Cargo.toml (Table II).
        assert!(ToolEmulator::trivy().generate(&repo).is_empty());
        // GitHub DG does, reporting the range verbatim.
        let github = ToolEmulator::github_dg().generate(&repo);
        assert_eq!(github.len(), 1);
        assert_eq!(github.components()[0].version.as_deref(), Some("1.0"));
    }

    #[test]
    fn no_merging_across_files() {
        let mut repo = RepoFs::new("multi");
        repo.add_text("requirements.txt", "numpy==1.19.2\n");
        repo.add_text("sub/requirements.txt", "numpy==1.19.2\n");
        let sbom = ToolEmulator::trivy().generate(&repo);
        assert_eq!(sbom.len(), 2); // §V-G: duplicates are not merged
        assert_eq!(sbom.duplicate_entries(), 1);
    }

    #[test]
    fn trivy_prefers_gosum_over_gomod() {
        let mut repo = RepoFs::new("go-pref");
        repo.add_text("go.mod", "module m\nrequire github.com/pkg/errors v0.9.1\n");
        repo.add_text(
            "go.sum",
            "github.com/pkg/errors v0.9.1 h1:x=\ngolang.org/x/sync v0.3.0 h1:y=\n",
        );
        let trivy = ToolEmulator::trivy().generate(&repo);
        // go.sum only: two modules, no double-report of errors from go.mod.
        assert_eq!(trivy.len(), 2);
        assert_eq!(trivy.duplicate_entries(), 0);
        // Syft has no go.sum support and reads go.mod.
        let syft = ToolEmulator::syft().generate(&repo);
        assert_eq!(syft.len(), 1);
    }

    #[test]
    fn binary_scanning_trivy_syft_only() {
        let mut repo = RepoFs::new("bin");
        repo.add_bytes(
            "app.gobin",
            golang::render_go_binary(&[("github.com/a/b", "v1.0.0")]),
        );
        assert_eq!(ToolEmulator::trivy().generate(&repo).len(), 1);
        assert_eq!(ToolEmulator::syft().generate(&repo).len(), 1);
        assert!(ToolEmulator::github_dg().generate(&repo).is_empty());
    }
}

#[cfg(test)]
mod marker_blindness_tests {
    use super::*;
    use sbomdiff_registry::{PackageEntry, PackageUniverse, RegistryDep, VersionEntry};
    use sbomdiff_types::{ConstraintFlavor, VersionReq};

    /// §V-H: sbom-tool ignores OS/Python requirements during transitive
    /// resolution, pulling in platform-excluded dependencies that pip would
    /// never install.
    #[test]
    fn sbom_tool_follows_platform_excluded_edges() {
        let mut uni = PackageUniverse::new(Ecosystem::Python);
        uni.insert(PackageEntry {
            name: "winonly".into(),
            versions: vec![VersionEntry {
                version: Version::new(1, 0, 0),
                deps: vec![],
                yanked: false,
            }],
        });
        uni.insert(PackageEntry {
            name: "rootpkg".into(),
            versions: vec![VersionEntry {
                version: Version::new(2, 0, 0),
                deps: vec![RegistryDep::new(
                    "winonly",
                    VersionReq::parse(">=1.0", ConstraintFlavor::Pep440).unwrap(),
                )
                .with_platform_excluded(true)],
                yanked: false,
            }],
        });
        let regs = Registries::from_parts(vec![uni]);
        let mut repo = RepoFs::new("marker-blind");
        repo.add_text("requirements.txt", "rootpkg==2.0.0\n");

        let sbom = ToolEmulator::sbom_tool(&regs, 0.0).generate(&repo);
        assert!(
            sbom.components().iter().any(|c| c.name == "winonly"),
            "sbom-tool must pull the marker-excluded edge (it ignores markers)"
        );
        // The best-practice generator honors markers — no winonly.
        let bp = crate::BestPracticeGenerator::new(&regs).generate(&repo);
        assert!(
            !bp.components().iter().any(|c| c.name == "winonly"),
            "best practice must honor markers"
        );
    }

    /// Ecosystem walk coverage: PHP, .NET and SwiftPM repositories flow
    /// through the right parsers and matrices.
    #[test]
    fn walks_php_dotnet_swiftpm() {
        let regs = Registries::generate(12);
        let mut repo = RepoFs::new("multi-eco");
        repo.add_text(
            "composer.lock",
            r#"{"packages": [{"name": "monolog/monolog", "version": "3.4.0"}], "packages-dev": [{"name": "phpunit/phpunit", "version": "10.2.1"}]}"#,
        );
        repo.add_text(
            "App/App.csproj",
            r#"<Project><ItemGroup><PackageReference Include="Newtonsoft.Json" Version="13.0.3" /></ItemGroup></Project>"#,
        );
        repo.add_text(
            "Package.swift",
            "let package = Package(dependencies: [ .package(url: \"https://github.com/s/SnapKit.git\", exact: \"5.6.0\") ])",
        );
        // Trivy: composer.lock only (prod only), no csproj, no Package.swift.
        let trivy = ToolEmulator::trivy().generate(&repo);
        let trivy_names: Vec<&str> = trivy.components().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(trivy_names, vec!["monolog/monolog"]);
        // GitHub DG: composer.lock (dev incl) + csproj + Package.swift.
        let github = ToolEmulator::github_dg().generate(&repo);
        assert_eq!(github.len(), 4, "{:?}", github.components());
        // sbom-tool: csproj with NuGet transitive expansion, no composer.
        let sbom_tool = ToolEmulator::sbom_tool(&regs, 0.0).generate(&repo);
        assert!(sbom_tool
            .components()
            .iter()
            .all(|c| c.ecosystem != Ecosystem::Php));
        // The registry round trip canonicalizes the NuGet id (case-
        // insensitive ecosystem → lowercase), another §V-E-style
        // inconsistency between tools.
        assert!(sbom_tool
            .components()
            .iter()
            .any(|c| c.name.eq_ignore_ascii_case("Newtonsoft.Json")));
    }
}
