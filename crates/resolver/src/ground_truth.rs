//! The `pip install --dry-run` ground-truth simulator (§V-H).
//!
//! Given a repository's `requirements.txt` (plus any files it includes via
//! `-r`), this computes the exact set of `(name, version)` pairs pip would
//! install on the evaluation platform: full PEP 508 parsing, `-r` include
//! following, environment-marker evaluation, extras activation, and
//! transitive resolution against the registry.

use std::collections::BTreeMap;

use sbomdiff_metadata::python::{parse_requirements, ReqStyle};
use sbomdiff_registry::PackageUniverse;
use sbomdiff_types::{DependencySource, Diagnostic, ResolvedPackage};

use crate::engine::{resolve, DedupPolicy, RootDep};
use crate::platform::{marker_allows, Platform};

/// The outcome of a dry run.
#[derive(Debug, Clone, Default)]
pub struct DryRunReport {
    /// Packages that would be installed (the Table III ground truth).
    pub installed: Vec<ResolvedPackage>,
    /// Declarations pip could not satisfy (unknown names, empty ranges,
    /// non-registry sources we cannot fetch).
    pub unresolved: Vec<String>,
    /// Classified parse diagnostics from the requirements files read during
    /// the dry run (malformed lines, truncated includes, dropped syntax).
    pub diagnostics: Vec<Diagnostic>,
}

impl DryRunReport {
    /// `(name, version)` pairs for comparison with SBOM contents.
    pub fn keys(&self) -> impl Iterator<Item = (String, String)> + '_ {
        self.installed.iter().map(ResolvedPackage::key)
    }

    /// Fraction of installed packages that are transitive (§V-C reports
    /// about 74% for Python).
    pub fn transitive_share(&self) -> f64 {
        if self.installed.is_empty() {
            return 0.0;
        }
        self.installed.iter().filter(|p| p.transitive).count() as f64 / self.installed.len() as f64
    }
}

/// Simulates `pip install --dry-run -r <entry>` against the registry.
///
/// `files` maps repo-relative paths to contents so `-r`/`-c` includes can be
/// followed; `entry` is the requirements file to start from.
///
/// # Examples
///
/// ```
/// use sbomdiff_registry::{PackageUniverse, UniverseConfig};
/// use sbomdiff_resolver::{dry_run, Platform};
/// use sbomdiff_types::Ecosystem;
///
/// let registry = PackageUniverse::generate(
///     &UniverseConfig { package_count: 10, ..UniverseConfig::for_ecosystem(Ecosystem::Python, 1) },
/// );
/// let files = [("requirements.txt".to_string(), "requests==2.31.0\n".to_string())].into();
/// let report = dry_run(&registry, &files, "requirements.txt", &Platform::default());
/// // requests plus its transitive dependencies, all pinned.
/// assert!(report.installed.iter().any(|p| p.name == "requests"));
/// assert!(report.transitive_share() > 0.0);
/// ```
pub fn dry_run(
    registry: &PackageUniverse,
    files: &BTreeMap<String, String>,
    entry: &str,
    platform: &Platform,
) -> DryRunReport {
    let mut roots: Vec<RootDep> = Vec::new();
    let mut unresolved: Vec<String> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut visited_files: Vec<String> = Vec::new();
    collect_roots(
        files,
        entry,
        platform,
        &mut roots,
        &mut unresolved,
        &mut diagnostics,
        &mut visited_files,
    );

    let resolution = resolve(registry, &roots, DedupPolicy::HighestWins, true);
    unresolved.extend(resolution.failures.iter().cloned());

    let ecosystem = sbomdiff_types::Ecosystem::Python;
    let installed = resolution
        .packages
        .into_iter()
        .map(|p| ResolvedPackage {
            name: sbomdiff_types::name::normalize(ecosystem, &p.name),
            version: p.version,
            transitive: p.transitive,
        })
        .collect();
    DryRunReport {
        installed,
        unresolved,
        diagnostics,
    }
}

fn collect_roots(
    files: &BTreeMap<String, String>,
    path: &str,
    platform: &Platform,
    roots: &mut Vec<RootDep>,
    unresolved: &mut Vec<String>,
    diagnostics: &mut Vec<Diagnostic>,
    visited: &mut Vec<String>,
) {
    if visited.iter().any(|v| v == path) {
        return; // include cycle
    }
    visited.push(path.to_string());
    let Some(content) = lookup_file(files, path) else {
        unresolved.push(format!("-r {path}"));
        return;
    };
    let parsed = parse_requirements(content, ReqStyle::Pip).with_path(path);
    diagnostics.extend(parsed.diags.iter().map(|d| (**d).clone()));
    for dep in &parsed {
        match &dep.source {
            DependencySource::IncludeFile(inc) => {
                let resolved_path = sibling_path(path, inc);
                collect_roots(
                    files,
                    &resolved_path,
                    platform,
                    roots,
                    unresolved,
                    diagnostics,
                    visited,
                );
            }
            DependencySource::ConstraintsFile(_) => {
                // Constraints limit versions but do not add packages; the
                // synthetic corpus does not exercise conflicting pins, so
                // they are a no-op here.
            }
            DependencySource::Registry => {
                if let Some(marker) = &dep.marker {
                    if !marker_allows(marker, platform) {
                        continue;
                    }
                }
                roots.push(RootDep {
                    name: dep.name.raw().to_string(),
                    req: dep.req.clone(),
                    scope: dep.scope,
                    extras: dep.extras.clone(),
                });
            }
            DependencySource::Path(p) => {
                // Local installs resolve only if the wheel filename pinned a
                // version; otherwise pip would build it — unresolvable here.
                if let Some(v) = dep.pinned_version() {
                    roots.push(RootDep {
                        name: dep.name.raw().to_string(),
                        req: Some(sbomdiff_types::VersionReq::exact(v.clone())),
                        scope: dep.scope,
                        extras: dep.extras.clone(),
                    });
                } else {
                    unresolved.push(p.clone());
                }
            }
            DependencySource::Url(u) => {
                if let Some(v) = dep.pinned_version() {
                    roots.push(RootDep {
                        name: dep.name.raw().to_string(),
                        req: Some(sbomdiff_types::VersionReq::exact(v.clone())),
                        scope: dep.scope,
                        extras: dep.extras.clone(),
                    });
                } else {
                    unresolved.push(u.clone());
                }
            }
            DependencySource::Vcs { url, .. } => {
                // VCS installs fetch arbitrary source; pip can install them
                // but our registry cannot know their version. Resolve to
                // the registry's latest when the name is known (close to
                // what a default-branch install yields), else unresolved.
                unresolved.push(format!("{} @ {url}", dep.name.raw()));
            }
        }
    }
}

fn lookup_file<'a>(files: &'a BTreeMap<String, String>, path: &str) -> Option<&'a str> {
    if let Some(c) = files.get(path) {
        return Some(c);
    }
    // Fall back to basename matching (includes are usually sibling files).
    let base = path.rsplit('/').next()?;
    files
        .iter()
        .find(|(k, _)| k.rsplit('/').next() == Some(base))
        .map(|(_, v)| v.as_str())
}

fn sibling_path(current: &str, include: &str) -> String {
    match current.rsplit_once('/') {
        Some((dir, _)) if !include.starts_with('/') => format!("{dir}/{include}"),
        _ => include.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbomdiff_registry::UniverseConfig;
    use sbomdiff_types::Ecosystem;

    fn registry() -> PackageUniverse {
        PackageUniverse::generate(&UniverseConfig {
            package_count: 30,
            ..UniverseConfig::for_ecosystem(Ecosystem::Python, 4242)
        })
    }

    fn files(entries: &[(&str, &str)]) -> BTreeMap<String, String> {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn resolves_pinned_and_ranged() {
        let reg = registry();
        let fs = files(&[("requirements.txt", "numpy==1.19.2\nrequests>=2.8.1\n")]);
        let report = dry_run(&reg, &fs, "requirements.txt", &Platform::default());
        let names: Vec<&str> = report.installed.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"numpy"));
        assert!(names.contains(&"requests"));
        // requests 2.31.0 pulls transitives.
        assert!(names.contains(&"urllib3"));
        let numpy = report.installed.iter().find(|p| p.name == "numpy").unwrap();
        assert_eq!(numpy.version.to_string(), "1.19.2");
        assert!(report.transitive_share() > 0.0);
    }

    #[test]
    fn follows_includes() {
        let reg = registry();
        let fs = files(&[
            ("requirements.txt", "-r common.txt\nnumpy==1.21.0\n"),
            ("common.txt", "requests==2.31.0\n"),
        ]);
        let report = dry_run(&reg, &fs, "requirements.txt", &Platform::default());
        let names: Vec<&str> = report.installed.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"requests"));
        assert!(names.contains(&"numpy"));
    }

    #[test]
    fn include_cycles_terminate() {
        let reg = registry();
        let fs = files(&[
            ("a.txt", "-r b.txt\nnumpy==1.19.2\n"),
            ("b.txt", "-r a.txt\n"),
        ]);
        let report = dry_run(&reg, &fs, "a.txt", &Platform::default());
        assert_eq!(report.installed.len(), 1);
    }

    #[test]
    fn markers_filter_on_platform() {
        let reg = registry();
        let fs = files(&[(
            "requirements.txt",
            "pywin32>=300; sys_platform == 'win32'\nnumpy==1.19.2\n",
        )]);
        let report = dry_run(&reg, &fs, "requirements.txt", &Platform::default());
        let names: Vec<&str> = report.installed.iter().map(|p| p.name.as_str()).collect();
        assert!(!names.contains(&"pywin32"));
        assert!(names.contains(&"numpy"));
    }

    #[test]
    fn extras_pull_extra_deps() {
        let reg = registry();
        let fs = files(&[("requirements.txt", "requests[security]==2.31.0\n")]);
        let report = dry_run(&reg, &fs, "requirements.txt", &Platform::default());
        let names: Vec<&str> = report.installed.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"pyopenssl"), "{names:?}");
        let plain_fs = files(&[("requirements.txt", "requests==2.31.0\n")]);
        let plain = dry_run(&reg, &plain_fs, "requirements.txt", &Platform::default());
        assert_eq!(report.installed.len(), plain.installed.len() + 1);
    }

    #[test]
    fn unknown_packages_are_unresolved() {
        let reg = registry();
        let fs = files(&[("requirements.txt", "no-such-package==1.0\n")]);
        let report = dry_run(&reg, &fs, "requirements.txt", &Platform::default());
        assert!(report.installed.is_empty());
        assert_eq!(report.unresolved, vec!["no-such-package".to_string()]);
    }

    #[test]
    fn missing_include_reported() {
        let reg = registry();
        let fs = files(&[("requirements.txt", "-r nowhere.txt\n")]);
        let report = dry_run(&reg, &fs, "requirements.txt", &Platform::default());
        assert_eq!(report.unresolved, vec!["-r nowhere.txt".to_string()]);
    }

    #[test]
    fn names_are_normalized() {
        let reg = registry();
        let fs = files(&[("requirements.txt", "NumPy==1.19.2\n")]);
        let report = dry_run(&reg, &fs, "requirements.txt", &Platform::default());
        assert_eq!(report.installed[0].name, "numpy");
    }
}
