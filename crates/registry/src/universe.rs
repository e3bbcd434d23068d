//! The package universe data model and query API.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use sbomdiff_types::{Ecosystem, Version, VersionReq};

/// A dependency edge in registry metadata.
///
/// An edge also carries a private memo of where it lands in the universe
/// that holds it (see [`PackageUniverse::follow`]), so outside this crate
/// it is built with [`RegistryDep::new`] and its `with_*` methods.
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
    /// Where the edge lands: filled by the first [`PackageUniverse::follow`]
    /// of it (`None` inside = a dead edge), cleared by
    /// [`PackageUniverse::insert`].
    target: OnceLock<Option<EdgeTarget>>,
}

/// Positions in a universe: the target package, the first published entry
/// equal to the selected version (whose edges a resolution expands), and
/// the selected entry (whose spelling it reports).
#[derive(Debug, Clone, Copy)]
struct EdgeTarget {
    package: u32,
    published: u32,
    selected: u32,
}

impl RegistryDep {
    /// Creates an unconditional, platform-independent edge.
    pub fn new(name: impl Into<String>, req: VersionReq) -> Self {
        RegistryDep {
            name: name.into(),
            req,
            extra: None,
            platform_excluded: false,
            target: OnceLock::new(),
        }
    }

    /// Gates the edge on an extra (`None` = unconditional).
    pub fn with_extra(mut self, extra: Option<String>) -> Self {
        self.extra = extra;
        self
    }

    /// Sets whether an environment marker excludes the edge on the
    /// evaluation platform.
    pub fn with_platform_excluded(mut self, platform_excluded: bool) -> Self {
        self.platform_excluded = platform_excluded;
        self
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

    /// [`select`](Self::select), then [`published`](Self::published) of
    /// the selected version.
    fn land(&self, req: Option<&VersionReq>) -> Option<(&Version, &VersionEntry)> {
        let version = self.select(req)?;
        Some((version, self.published(version)?))
    }

    fn clear_memos(&mut self) {
        for dep in self.versions.iter_mut().flat_map(|v| &mut v.deps) {
            dep.target.take();
        }
    }
}

/// Where a visit lands: the package, its selected version (in the spelling
/// of the selected entry) and the first published entry equal to that
/// version, whose edges a resolution expands.
pub type Landing<'u> = (&'u PackageEntry, &'u Version, &'u VersionEntry);

/// A complete synthetic registry for one ecosystem.
///
/// Packages are stored by position behind a canonical-name index, so an
/// edge can memoize where it lands as three positions (see
/// [`follow`](Self::follow)).
#[derive(Debug)]
pub struct PackageUniverse {
    ecosystem: Ecosystem,
    /// Canonical name → position in `packages`.
    index: BTreeMap<String, u32>,
    packages: Vec<PackageEntry>,
    /// Set by the first edge memo filled since the last clearing;
    /// [`insert`](Self::insert) clears every memo when it is set.
    memos_filled: AtomicBool,
}

/// A clone keeps the edge memos, which stay valid because the clone has
/// the same positions.
impl Clone for PackageUniverse {
    fn clone(&self) -> Self {
        PackageUniverse {
            ecosystem: self.ecosystem,
            index: self.index.clone(),
            packages: self.packages.clone(),
            // Conservative: memos copied while another thread filled them
            // are cleared by the clone's first insert either way.
            memos_filled: AtomicBool::new(true),
        }
    }
}

impl PackageUniverse {
    /// Creates an empty universe (packages are added by the generator or by
    /// tests).
    pub fn new(ecosystem: Ecosystem) -> Self {
        PackageUniverse {
            ecosystem,
            index: BTreeMap::new(),
            packages: Vec::new(),
            memos_filled: AtomicBool::new(false),
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
        self.entries().map(|(name, _)| name)
    }

    /// Iterates over `(display name, published versions ascending)` pairs
    /// in canonical-name order — one pass for consumers that visit every
    /// package (advisory generation), instead of a `package_names` walk
    /// with a normalized re-`lookup` per name.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[VersionEntry])> {
        self.index.values().map(|&at| {
            let p = &self.packages[at as usize];
            (p.name.as_str(), p.versions.as_slice())
        })
    }

    /// Inserts (or replaces) a package entry.
    ///
    /// Clears every edge memo once any has been filled (a replaced entry
    /// moves versions, a new package can revive a dead edge), and always
    /// the memos the inserted entry carries (an entry cloned out of another
    /// universe carries that universe's positions). Generation, which
    /// inserts package by package before any edge is followed, stays
    /// linear in the number of packages.
    pub fn insert(&mut self, mut entry: PackageEntry) {
        if std::mem::take(self.memos_filled.get_mut()) {
            self.packages.iter_mut().for_each(PackageEntry::clear_memos);
        }
        entry.clear_memos();
        let key = sbomdiff_types::name::normalize(self.ecosystem, &entry.name);
        match self.index.entry(key) {
            Entry::Occupied(slot) => self.packages[*slot.get() as usize] = entry,
            Entry::Vacant(slot) => {
                slot.insert(u32::try_from(self.packages.len()).expect("under 2^32 packages"));
                self.packages.push(entry);
            }
        }
    }

    /// Looks a package up by name (ecosystem normalization applied — PyPI
    /// treats `Flask_Login` and `flask-login` as the same package).
    pub fn lookup(&self, name: &str) -> Option<&PackageEntry> {
        self.position(name).map(|at| &self.packages[at as usize])
    }

    fn position(&self, name: &str) -> Option<u32> {
        // Borrowed-key fast path: corpus and resolver names are usually
        // already canonical, and this lookup is the hottest registry op.
        let key = sbomdiff_types::name::normalized(self.ecosystem, name);
        self.index.get(key.as_ref()).copied()
    }

    /// Where a root visit of `name` at `req` lands: [`lookup`](Self::lookup),
    /// then [`PackageEntry::select`], then [`PackageEntry::published`].
    /// Computed on every call.
    pub fn land(&self, name: &str, req: Option<&VersionReq>) -> Option<Landing<'_>> {
        let entry = self.lookup(name)?;
        let (version, published) = entry.land(req)?;
        Some((entry, version, published))
    }

    /// [`land`](Self::land) for `edge`, one of this universe's own edges,
    /// memoized in the edge: the first call (from any thread) stores three
    /// positions, later calls index them. [`insert`](Self::insert) clears
    /// the memos, so the answer is always that of `land`.
    pub fn follow(&self, edge: &RegistryDep) -> Option<Landing<'_>> {
        let target = (*edge.target.get_or_init(|| {
            // Relaxed: only `insert` reads the flag, through `&mut self`,
            // so whatever handed it exclusive access ordered this store.
            self.memos_filled.store(true, Ordering::Relaxed);
            let package = self.position(&edge.name)?;
            let entry = &self.packages[package as usize];
            let (version, published) = entry.land(Some(&edge.req))?;
            // Both answers borrow from `entry.versions`; recover positions.
            let at = |found: Option<usize>| u32::try_from(found?).ok();
            Some(EdgeTarget {
                package,
                published: at(entry.versions.iter().position(|v| ptr::eq(v, published)))?,
                selected: at(entry
                    .versions
                    .iter()
                    .position(|v| ptr::eq(&v.version, version)))?,
            })
        }))?;
        let entry = &self.packages[target.package as usize];
        Some((
            entry,
            &entry.versions[target.selected as usize].version,
            &entry.versions[target.published as usize],
        ))
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
                        RegistryDep::new("sec", req(">=2.0")).with_extra(Some("security".into())),
                        RegistryDep::new("winonly", req(">=0.1")).with_platform_excluded(true),
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

    /// `follow` answers what `land` answers, memoized or not, and an
    /// insert makes a memoized edge see the new entry.
    #[test]
    fn follow_matches_land_across_inserts() {
        let mut uni = sample_universe();
        let base = |versions: &[(u64, u64)]| PackageEntry {
            name: "base".into(),
            versions: versions
                .iter()
                .map(|&(major, minor)| VersionEntry {
                    version: Version::new(major, minor, 0),
                    deps: vec![],
                    yanked: false,
                })
                .collect(),
        };
        let followed = |uni: &PackageUniverse, edge: usize| {
            let dep = &uni.lookup("demo-pkg").unwrap().versions[1].deps[edge];
            let landed = uni
                .land(&dep.name, Some(&dep.req))
                .map(|(_, v, p)| (v, p as *const _));
            let memo = uni.follow(dep).map(|(_, v, p)| (v, p as *const _));
            assert_eq!(landed, memo, "edge {edge}");
            memo.map(|(v, _)| v.clone())
        };
        assert_eq!(followed(&uni, 0), None); // dead: no "base" yet
        uni.insert(base(&[(1, 2)]));
        assert_eq!(followed(&uni, 0), Some(Version::new(1, 2, 0)));
        assert_eq!(followed(&uni, 0), Some(Version::new(1, 2, 0))); // warm
        uni.insert(base(&[(1, 0), (1, 2), (1, 9)]));
        assert_eq!(followed(&uni, 0), Some(Version::new(1, 9, 0)));
        let copy = uni.clone();
        assert_eq!(followed(&copy, 0), Some(Version::new(1, 9, 0)));
        assert_eq!(followed(&uni, 1), None); // "sec" stays dead
    }
}
