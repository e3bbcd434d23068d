//! Property tests for registry query invariants.

use proptest::prelude::*;

use sbomdiff_registry::{FlakyRegistry, PackageUniverse, UniverseConfig};
use sbomdiff_types::{ConstraintFlavor, Ecosystem, Version, VersionReq};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Versions are published ascending; `latest` is a published, non-
    /// prerelease maximum; `latest_matching` respects its requirement.
    #[test]
    fn universe_query_invariants(seed in 0u64..40, eco_idx in 0usize..9) {
        let eco = Ecosystem::ALL[eco_idx];
        let uni = PackageUniverse::generate(&UniverseConfig {
            package_count: 60,
            ..UniverseConfig::for_ecosystem(eco, seed)
        });
        for name in uni.package_names().take(30) {
            let versions = uni.versions(name);
            prop_assert!(!versions.is_empty());
            for w in versions.windows(2) {
                prop_assert!(w[0] <= w[1], "{name}: {} > {}", w[0], w[1]);
            }
            if let Some(latest) = uni.latest(name) {
                prop_assert!(versions.contains(&latest));
                prop_assert!(!latest.is_prerelease());
            }
            let req = VersionReq::parse(">=0", ConstraintFlavor::Pep440).unwrap();
            if let Some(m) = uni.latest_matching(name, &req) {
                prop_assert!(req.matches(m));
                prop_assert!(versions.contains(&m));
            }
        }
    }

    /// The flaky wrapper never fabricates data: every successful answer of
    /// its five queries — the ones the sbom-tool emulator calls — is the
    /// underlying universe's answer, borrowed from the same entry.
    #[test]
    fn flaky_registry_is_truthful(seed in 0u64..40, rate in 0.0f64..1.0) {
        for eco in Ecosystem::ALL {
            let uni = PackageUniverse::generate(&UniverseConfig {
                package_count: 40,
                ..UniverseConfig::for_ecosystem(eco, seed)
            });
            let flaky = FlakyRegistry::new(&uni, rate, seed);
            for name in uni.package_names().take(20) {
                if flaky.validate(name).is_some() {
                    prop_assert!(uni.lookup(name).is_some());
                }
                if let Some(latest) = flaky.latest_ref(name) {
                    prop_assert!(uni.latest(name).is_some_and(|u| std::ptr::eq(u, latest)), "{name}");
                }
                let published = uni.versions(name);
                let mid = published[published.len() / 2];
                for req in [">=0".to_string(), format!("<={mid}")] {
                    let Ok(req) = VersionReq::parse(&req, ConstraintFlavor::Pep440) else {
                        continue;
                    };
                    if let Some(m) = flaky.latest_matching_ref(name, &req) {
                        let want = uni.latest_matching(name, &req);
                        prop_assert!(want.is_some_and(|u| std::ptr::eq(u, m)), "{name} {req}");
                    }
                }
                for v in &uni.lookup(name).unwrap().versions {
                    for edge in &v.deps {
                        if let Some(m) = flaky.follow_ref(edge) {
                            let want = uni.latest_matching(&edge.name, &edge.req);
                            prop_assert!(want.is_some_and(|u| std::ptr::eq(u, m)), "{name} -> {}", edge.name);
                        }
                    }
                    let extras: Vec<String> =
                        v.deps.iter().filter_map(|d| d.extra.clone()).collect();
                    for honor_markers in [true, false] {
                        let Some(edges) = flaky.deps_of_ref(name, &v.version, &extras, honor_markers)
                        else {
                            continue;
                        };
                        let want = uni.deps_of(name, &v.version, &extras, honor_markers);
                        prop_assert_eq!(edges.len(), want.len());
                        for (got, want) in edges.iter().zip(&want) {
                            prop_assert!(std::ptr::eq(*got, *want), "{name}@{}", v.version);
                        }
                    }
                }
            }
            // Unknown names fail regardless of flakiness.
            let ghost = "no-such-package-xyz";
            prop_assert!(flaky.validate(ghost).is_none());
            prop_assert!(flaky.latest_ref(ghost).is_none());
            let any = VersionReq::parse(">=0", ConstraintFlavor::Pep440).unwrap();
            prop_assert!(flaky.latest_matching_ref(ghost, &any).is_none());
            prop_assert!(flaky.deps_of_ref(ghost, &Version::new(1, 0, 0), &[], false).is_none());
        }
    }

    /// Lookup is closed under the ecosystem's name normalization.
    #[test]
    fn lookup_normalization_closed(seed in 0u64..40) {
        let uni = PackageUniverse::generate(&UniverseConfig {
            package_count: 50,
            ..UniverseConfig::for_ecosystem(Ecosystem::Python, seed)
        });
        for name in uni.package_names().take(30) {
            let upper = name.to_uppercase();
            let swapped = name.replace('-', "_");
            prop_assert!(uni.lookup(&upper).is_some(), "{upper}");
            prop_assert!(uni.lookup(&swapped).is_some(), "{swapped}");
        }
    }
}
