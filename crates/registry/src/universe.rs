//! The package universe data model and query API.

use std::collections::BTreeMap;

use sbomdiff_types::{Ecosystem, Version, VersionReq};

/// A dependency edge in registry metadata.
#[derive(Debug, Clone)]
pub struct RegistryDep {
    /// Target package name (registry display form).
    pub name: String,
    /// Version requirement on the target.
    pub req: VersionReq,
    /// The extra that activates this edge (`None` = unconditional).
    pub extra: Option<String>,
    /// True when an environment marker excludes this edge on the evaluation
    /// platform. The ground-truth resolver skips such edges; sbom-tool's
    /// transitive resolution ignores markers and follows them (§V-H).
    pub platform_excluded: bool,
}

impl RegistryDep {
    /// Creates an unconditional, platform-independent edge.
    pub fn new(name: impl Into<String>, req: VersionReq) -> Self {
        RegistryDep {
            name: name.into(),
            req,
            extra: None,
            platform_excluded: false,
        }
    }
}

/// One published version of a package.
#[derive(Debug, Clone)]
pub struct VersionEntry {
    /// The concrete version.
    pub version: Version,
    /// Dependency edges (unconditional, extra-gated and platform-gated).
    pub deps: Vec<RegistryDep>,
    /// Whether the version was yanked (excluded from "latest" queries).
    pub yanked: bool,
}

impl VersionEntry {
    /// Dependency edges active for the requested extras, minus the
    /// platform-excluded ones when `honor_markers` is set.
    ///
    /// `honor_markers` is what distinguishes the ground-truth dry run
    /// (true: platform-excluded edges are skipped, as pip does) from
    /// sbom-tool's marker-blind resolution (false).
    pub fn active_deps<'s, 'e>(
        &'s self,
        extras: &'e [String],
        honor_markers: bool,
    ) -> impl Iterator<Item = &'s RegistryDep> + use<'s, 'e> {
        self.deps.iter().filter(move |d| {
            let extra_active = match &d.extra {
                None => true,
                Some(e) => extras.iter().any(|x| x.eq_ignore_ascii_case(e)),
            };
            extra_active && !(honor_markers && d.platform_excluded)
        })
    }
}

/// A package with its published versions, oldest first.
#[derive(Debug, Clone)]
pub struct PackageEntry {
    /// Registry display name.
    pub name: String,
    /// Published versions in ascending order.
    pub versions: Vec<VersionEntry>,
}

impl PackageEntry {
    /// The newest non-yanked version.
    pub fn latest(&self) -> Option<&Version> {
        self.versions
            .iter()
            .rev()
            .find(|v| !v.yanked && !v.version.is_prerelease())
            .map(|v| &v.version)
    }

    /// Version selection: the newest non-yanked version satisfying `req`,
    /// or [`latest`](Self::latest) when there is no requirement.
    pub fn select(&self, req: Option<&VersionReq>) -> Option<&Version> {
        let Some(req) = req else {
            return self.latest();
        };
        self.versions
            .iter()
            .filter(|v| !v.yanked && req.matches(&v.version))
            .map(|v| &v.version)
            .max()
    }

    /// The first published entry equal to `version` — the one whose edges
    /// a resolution of `version` expands.
    pub fn published(&self, version: &Version) -> Option<&VersionEntry> {
        self.versions.iter().find(|v| &v.version == version)
    }
}

/// A complete synthetic registry for one ecosystem.
#[derive(Debug, Clone)]
pub struct PackageUniverse {
    ecosystem: Ecosystem,
    packages: BTreeMap<String, PackageEntry>,
}

impl PackageUniverse {
    /// Creates an empty universe (packages are added by the generator or by
    /// tests).
    pub fn new(ecosystem: Ecosystem) -> Self {
        PackageUniverse {
            ecosystem,
            packages: BTreeMap::new(),
        }
    }

    /// Generates a universe from a configuration (see
    /// [`UniverseConfig`](crate::UniverseConfig)).
    pub fn generate(config: &crate::UniverseConfig) -> Self {
        crate::generate::generate(config)
    }

    /// The ecosystem this universe serves.
    pub fn ecosystem(&self) -> Ecosystem {
        self.ecosystem
    }

    /// Number of packages.
    pub fn package_count(&self) -> usize {
        self.packages.len()
    }

    /// Iterates over package display names (sorted by canonical name).
    pub fn package_names(&self) -> impl Iterator<Item = &str> {
        self.packages.values().map(|p| p.name.as_str())
    }

    /// Iterates over `(display name, published versions ascending)` pairs
    /// in canonical-name order — one pass for consumers that visit every
    /// package (advisory generation), instead of a `package_names` walk
    /// with a normalized re-`lookup` per name.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[VersionEntry])> {
        self.packages
            .values()
            .map(|p| (p.name.as_str(), p.versions.as_slice()))
    }

    /// Inserts (or replaces) a package entry.
    pub fn insert(&mut self, entry: PackageEntry) {
        let key = sbomdiff_types::name::normalize(self.ecosystem, &entry.name);
        self.packages.insert(key, entry);
    }

    /// Looks a package up by name (ecosystem normalization applied — PyPI
    /// treats `Flask_Login` and `flask-login` as the same package).
    pub fn lookup(&self, name: &str) -> Option<&PackageEntry> {
        // Borrowed-key fast path: corpus and resolver names are usually
        // already canonical, and this lookup is the hottest registry op.
        let key = sbomdiff_types::name::normalized(self.ecosystem, name);
        self.packages.get(key.as_ref())
    }

    /// All versions of a package, ascending.
    pub fn versions(&self, name: &str) -> Vec<&Version> {
        self.lookup(name)
            .map(|p| p.versions.iter().map(|v| &v.version).collect())
            .unwrap_or_default()
    }

    /// The newest non-yanked release of a package.
    pub fn latest(&self, name: &str) -> Option<&Version> {
        self.lookup(name).and_then(PackageEntry::latest)
    }

    /// The newest version satisfying `req` — the sbom-tool pinning strategy
    /// (§V-D).
    pub fn latest_matching(&self, name: &str, req: &VersionReq) -> Option<&Version> {
        self.lookup(name)?.select(Some(req))
    }

    /// Dependency edges of a concrete version, filtered by requested extras
    /// and (optionally) the evaluation platform — see
    /// [`VersionEntry::active_deps`].
    pub fn deps_of(
        &self,
        name: &str,
        version: &Version,
        extras: &[String],
        honor_markers: bool,
    ) -> Vec<&RegistryDep> {
        self.lookup(name)
            .and_then(|entry| entry.published(version))
            .map(|v| v.active_deps(extras, honor_markers).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbomdiff_types::ConstraintFlavor;

    fn req(s: &str) -> VersionReq {
        VersionReq::parse(s, ConstraintFlavor::Pep440).unwrap()
    }

    fn sample_universe() -> PackageUniverse {
        let mut uni = PackageUniverse::new(Ecosystem::Python);
        uni.insert(PackageEntry {
            name: "Demo_Pkg".into(),
            versions: vec![
                VersionEntry {
                    version: Version::new(1, 0, 0),
                    deps: vec![RegistryDep::new("base", req(">=1.0"))],
                    yanked: false,
                },
                VersionEntry {
                    version: Version::new(1, 5, 0),
                    deps: vec![
                        RegistryDep::new("base", req(">=1.2")),
                        RegistryDep {
                            name: "sec".into(),
                            req: req(">=2.0"),
                            extra: Some("security".into()),
                            platform_excluded: false,
                        },
                        RegistryDep {
                            name: "winonly".into(),
                            req: req(">=0.1"),
                            extra: None,
                            platform_excluded: true,
                        },
                    ],
                    yanked: false,
                },
                VersionEntry {
                    version: Version::new(2, 0, 0),
                    deps: vec![],
                    yanked: true,
                },
            ],
        });
        uni
    }

    #[test]
    fn lookup_is_normalized() {
        let uni = sample_universe();
        assert!(uni.lookup("demo-pkg").is_some());
        assert!(uni.lookup("DEMO_PKG").is_some());
        assert!(uni.lookup("other").is_none());
    }

    #[test]
    fn latest_skips_yanked() {
        let uni = sample_universe();
        assert_eq!(uni.latest("demo-pkg"), Some(&Version::new(1, 5, 0)));
    }

    #[test]
    fn latest_matching_respects_req() {
        let uni = sample_universe();
        assert_eq!(
            uni.latest_matching("demo_pkg", &req(">=1.0, <1.4")),
            Some(&Version::new(1, 0, 0))
        );
        assert_eq!(uni.latest_matching("demo_pkg", &req(">=3.0")), None);
    }

    #[test]
    fn deps_of_extras_and_markers() {
        let uni = sample_universe();
        let v = Version::new(1, 5, 0);
        let plain = uni.deps_of("demo-pkg", &v, &[], true);
        assert_eq!(plain.len(), 1); // base only: extra inactive, marker honored
        let with_extra = uni.deps_of("demo-pkg", &v, &["security".into()], true);
        assert_eq!(with_extra.len(), 2);
        let marker_blind = uni.deps_of("demo-pkg", &v, &[], false);
        assert_eq!(marker_blind.len(), 2); // winonly included
    }

    #[test]
    fn deps_of_unknown_is_empty() {
        let uni = sample_universe();
        assert!(uni
            .deps_of("nope", &Version::new(1, 0, 0), &[], true)
            .is_empty());
        assert!(uni
            .deps_of("demo-pkg", &Version::new(9, 9, 9), &[], true)
            .is_empty());
    }
}
