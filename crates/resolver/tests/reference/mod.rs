//! The clone-based breadth-first resolver that `engine::resolve` replaced,
//! kept as an equivalence oracle.
//!
//! It reaches the registry only through `PackageUniverse`'s public
//! name-keyed queries, and it clones every version and edge it visits, as
//! the resolver did before it walked the registry by reference: each visit
//! looks the package up once to select a version and twice more to expand
//! its edges, and the queue owns a `RootDep` per visit.

use std::collections::{BTreeMap, VecDeque};

use sbomdiff_faultline as fault;
use sbomdiff_registry::{PackageUniverse, RegistryDep};
use sbomdiff_resolver::{DedupPolicy, Resolution, ResolvedEntry, RootDep};
use sbomdiff_types::DepScope;

/// Every deduplication policy.
pub const POLICIES: [DedupPolicy; 3] = [
    DedupPolicy::HighestWins,
    DedupPolicy::FirstWins,
    DedupPolicy::PerMajor,
];

/// Resolves `roots` the way the resolver did before it borrowed.
pub fn resolve(
    registry: &PackageUniverse,
    roots: &[RootDep],
    policy: DedupPolicy,
    honor_markers: bool,
) -> Resolution {
    let mut resolution = Resolution::default();
    let mut chosen: BTreeMap<String, usize> = BTreeMap::new();
    let mut queue: VecDeque<(RootDep, bool)> = roots.iter().cloned().map(|r| (r, false)).collect();

    let mut guard = 0usize;
    while let Some((dep, transitive)) = queue.pop_front() {
        guard += 1;
        if guard > 100_000 {
            break;
        }
        if fault::point!(fault::sites::RESOLVER_VISIT, &dep.name).is_some() {
            if transitive {
                resolution.pruned_transitives += 1;
            } else {
                resolution.failures.push(dep.name.clone());
            }
            continue;
        }
        let resolved_version = match &dep.req {
            Some(req) => registry.latest_matching(&dep.name, req).cloned(),
            None => registry.latest(&dep.name).cloned(),
        };
        let Some(version) = resolved_version else {
            if transitive {
                resolution.pruned_transitives += 1;
            } else {
                resolution.failures.push(dep.name.clone());
            }
            continue;
        };
        let key = match policy {
            DedupPolicy::PerMajor => format!("{}@{}", dep.name, version.segment(0)),
            _ => dep.name.clone(),
        };
        if let Some(&existing_idx) = chosen.get(&key) {
            match policy {
                DedupPolicy::FirstWins | DedupPolicy::PerMajor => continue,
                DedupPolicy::HighestWins => {
                    if resolution.packages[existing_idx].version >= version {
                        continue;
                    }
                    resolution.packages[existing_idx].version = version.clone();
                }
            }
        } else {
            chosen.insert(key, resolution.packages.len());
            resolution.packages.push(ResolvedEntry {
                name: dep.name.clone(),
                version: version.clone(),
                scope: dep.scope,
                transitive,
            });
        }
        // The owned registry client answered `None` for an unknown package
        // and a cloned edge list otherwise.
        let edges: Option<Vec<RegistryDep>> = registry.lookup(&dep.name).map(|_| {
            registry
                .deps_of(&dep.name, &version, &dep.extras, honor_markers)
                .into_iter()
                .cloned()
                .collect()
        });
        for edge in edges.into_iter().flatten() {
            queue.push_back((
                RootDep {
                    name: edge.name,
                    req: Some(edge.req),
                    scope: dep.scope,
                    extras: Vec::new(),
                },
                true,
            ));
        }
    }
    resolution
}

/// Everything a resolution reports, with versions in their published
/// spelling (`Version` equality ignores spelling: `1.0 == 1.0.0`).
pub type Summary = (Vec<(String, String, DepScope, bool)>, Vec<String>, usize);

/// The comparable form of a resolution.
pub fn summary(r: &Resolution) -> Summary {
    let packages = r
        .packages
        .iter()
        .map(|p| (p.name.clone(), p.version.to_string(), p.scope, p.transitive))
        .collect();
    (packages, r.failures.clone(), r.pruned_transitives)
}
