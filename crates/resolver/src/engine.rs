//! A breadth-first dependency resolver over the synthetic registry.
//!
//! Used by the corpus generator to synthesize lockfiles consistent with raw
//! metadata, and by the ground-truth dry run (via pip-flavored settings).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use sbomdiff_faultline as fault;
use sbomdiff_registry::{PackageUniverse, RegistryDep};
use sbomdiff_types::{DepScope, Version, VersionReq};

/// A root (directly declared) dependency to resolve.
#[derive(Debug, Clone)]
pub struct RootDep {
    /// Package name.
    pub name: String,
    /// Declared requirement (`None` = any version, resolved to latest).
    pub req: Option<VersionReq>,
    /// Declared scope (propagated to the resolved entries).
    pub scope: DepScope,
    /// Requested extras (Python).
    pub extras: Vec<String>,
}

impl RootDep {
    /// Creates a runtime-scoped root without extras.
    pub fn new(name: impl Into<String>, req: Option<VersionReq>) -> Self {
        RootDep {
            name: name.into(),
            req,
            scope: DepScope::Runtime,
            extras: Vec::new(),
        }
    }
}

/// How version conflicts between sibling requirements are settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupPolicy {
    /// One version per package; the first resolution wins (Maven
    /// "nearest wins").
    FirstWins,
    /// One version per package; the highest resolved version wins
    /// (pip, Composer, bundler).
    HighestWins,
    /// One version per semver-major (Cargo, and a good npm approximation).
    PerMajor,
}

/// One resolved package in the install set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedEntry {
    /// Package name as the registry spells it.
    pub name: String,
    /// Concrete resolved version.
    pub version: Version,
    /// Scope inherited from the root that pulled this in.
    pub scope: DepScope,
    /// False for directly declared roots, true for transitives.
    pub transitive: bool,
}

/// A complete resolution.
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    /// Resolved entries in BFS discovery order.
    pub packages: Vec<ResolvedEntry>,
    /// Root names that could not be resolved (unknown package / no version
    /// in range / registry failure).
    pub failures: Vec<String>,
    /// Transitive visits dropped because their package did not resolve
    /// (dead registry edge, no version in range, or an injected fault).
    /// Keeps silent pruning countable: a fault-injection harness can
    /// assert every injected resolver fault is visible here or in
    /// `failures`.
    pub pruned_transitives: usize,
}

impl Resolution {
    /// Number of transitive entries.
    pub fn transitive_count(&self) -> usize {
        self.packages.iter().filter(|p| p.transitive).count()
    }
}

/// One queued visit. It borrows its root from the caller or its edge from
/// the registry, so queueing a visit never allocates.
struct Visit<'a> {
    via: Via<'a>,
    scope: DepScope,
}

/// What a visit follows: a declared root, or a registry edge (transitive,
/// no extras), whose landing the registry memoizes.
enum Via<'a> {
    Root(&'a RootDep),
    Edge(&'a RegistryDep),
}

/// Resolves roots and their transitive closure against a registry.
///
/// `honor_markers` controls platform-marker filtering of registry edges
/// (true for the pip dry run; false for sbom-tool emulation).
pub fn resolve(
    registry: &PackageUniverse,
    roots: &[RootDep],
    policy: DedupPolicy,
    honor_markers: bool,
) -> Resolution {
    let mut resolution = Resolution::default();
    // Key: package identity under the policy — the name as spelled, plus
    // the major under PerMajor (0 otherwise). Hashed with the default
    // (randomly keyed) hasher: root names are outside input, and nothing
    // iterates the map.
    let mut chosen: HashMap<(&str, u64), usize> = HashMap::new();
    let mut queue: VecDeque<Visit<'_>> = roots
        .iter()
        .map(|root| Visit {
            via: Via::Root(root),
            scope: root.scope,
        })
        .collect();

    let mut guard = 0usize;
    while let Some(visit) = queue.pop_front() {
        guard += 1;
        if guard > 100_000 {
            break; // defensive bound; registry DAGs terminate well below this
        }
        let (name, extras, transitive): (&str, &[String], bool) = match visit.via {
            Via::Root(root) => (&root.name, &root.extras, false),
            Via::Edge(edge) => (&edge.name, &[], true),
        };
        // Fault point: an injected failure drops this visit exactly like an
        // unresolvable package — roots land in `failures`, transitives are
        // silently pruned (matching real resolver behavior on a dead edge).
        let landing = if fault::point!(fault::sites::RESOLVER_VISIT, name).is_some() {
            None
        } else {
            match visit.via {
                Via::Root(root) => registry.land(name, root.req.as_ref()),
                Via::Edge(edge) => registry.follow(edge),
            }
        };
        let Some((_, version, published)) = landing else {
            if transitive {
                resolution.pruned_transitives += 1;
            } else {
                resolution.failures.push(name.to_string());
            }
            continue;
        };
        let major = match policy {
            DedupPolicy::PerMajor => version.segment(0),
            _ => 0,
        };
        match chosen.entry((name, major)) {
            Entry::Occupied(slot) => {
                let existing = &mut resolution.packages[*slot.get()];
                if policy != DedupPolicy::HighestWins || existing.version >= *version {
                    continue;
                }
                // Upgrade in place; edges of the higher version replace.
                existing.version = version.clone();
            }
            Entry::Vacant(slot) => {
                slot.insert(resolution.packages.len());
                resolution.packages.push(ResolvedEntry {
                    name: name.to_string(),
                    version: version.clone(),
                    scope: visit.scope,
                    transitive,
                });
            }
        }
        queue.extend(
            published
                .active_deps(extras, honor_markers)
                .map(|edge| Visit {
                    via: Via::Edge(edge),
                    scope: visit.scope,
                }),
        );
    }
    resolution
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbomdiff_registry::{PackageEntry, VersionEntry};
    use sbomdiff_types::{ConstraintFlavor, Ecosystem};

    fn req(s: &str) -> VersionReq {
        VersionReq::parse(s, ConstraintFlavor::Pep440).unwrap()
    }

    fn universe() -> PackageUniverse {
        let mut uni = PackageUniverse::new(Ecosystem::Python);
        uni.insert(PackageEntry {
            name: "leaf".into(),
            versions: vec![
                VersionEntry {
                    version: Version::new(1, 0, 0),
                    deps: vec![],
                    yanked: false,
                },
                VersionEntry {
                    version: Version::new(2, 0, 0),
                    deps: vec![],
                    yanked: false,
                },
            ],
        });
        uni.insert(PackageEntry {
            name: "mid".into(),
            versions: vec![VersionEntry {
                version: Version::new(1, 5, 0),
                deps: vec![RegistryDep::new("leaf", req(">=1.0, <2.0"))],
                yanked: false,
            }],
        });
        uni.insert(PackageEntry {
            name: "top".into(),
            versions: vec![VersionEntry {
                version: Version::new(3, 0, 0),
                deps: vec![
                    RegistryDep::new("mid", req(">=1.0")),
                    RegistryDep::new("leaf", req(">=2.0")),
                ],
                yanked: false,
            }],
        });
        uni
    }

    #[test]
    fn resolves_transitive_closure() {
        let uni = universe();
        let roots = vec![RootDep::new("top", None)];
        let r = resolve(&uni, &roots, DedupPolicy::HighestWins, true);
        assert_eq!(r.failures.len(), 0);
        let names: Vec<&str> = r.packages.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["top", "mid", "leaf"]);
        assert!(!r.packages[0].transitive);
        assert!(r.packages[2].transitive);
        // HighestWins: leaf required >=2.0 by top and <2.0 by mid; the
        // higher resolution (2.0.0) wins.
        assert_eq!(r.packages[2].version, Version::new(2, 0, 0));
    }

    #[test]
    fn first_wins_keeps_first() {
        let uni = universe();
        let roots = vec![
            RootDep::new("leaf", Some(req("==1.0.0"))),
            RootDep::new("leaf", Some(req("==2.0.0"))),
        ];
        let r = resolve(&uni, &roots, DedupPolicy::FirstWins, true);
        assert_eq!(r.packages.len(), 1);
        assert_eq!(r.packages[0].version, Version::new(1, 0, 0));
    }

    #[test]
    fn per_major_keeps_both() {
        let uni = universe();
        let roots = vec![
            RootDep::new("leaf", Some(req("==1.0.0"))),
            RootDep::new("leaf", Some(req("==2.0.0"))),
        ];
        let r = resolve(&uni, &roots, DedupPolicy::PerMajor, true);
        assert_eq!(r.packages.len(), 2);
    }

    #[test]
    fn unresolvable_roots_are_failures() {
        let uni = universe();
        let roots = vec![
            RootDep::new("ghost", None),
            RootDep::new("leaf", Some(req(">=9.0"))),
        ];
        let r = resolve(&uni, &roots, DedupPolicy::HighestWins, true);
        assert_eq!(r.failures, vec!["ghost".to_string(), "leaf".to_string()]);
        assert!(r.packages.is_empty());
    }

    #[test]
    fn scope_propagates_to_transitives() {
        let uni = universe();
        let mut root = RootDep::new("mid", None);
        root.scope = DepScope::Dev;
        let r = resolve(&uni, &[root], DedupPolicy::HighestWins, true);
        assert!(r.packages.iter().all(|p| p.scope == DepScope::Dev));
    }

    #[test]
    fn transitive_count() {
        let uni = universe();
        let r = resolve(
            &uni,
            &[RootDep::new("top", None)],
            DedupPolicy::HighestWins,
            true,
        );
        assert_eq!(r.transitive_count(), 2);
    }
}
